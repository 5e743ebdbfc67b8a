"""Catalog inventory and record hygiene."""

import pytest

# every display named in the source material gets a record; this list is
# the frozen inventory the shipped catalog must cover
EXPECTED_IDS = [
    # elementary building blocks
    "q-bin", "gr90-ii.1", "elementary1", "gri-27-r2", "gri-27-r3", "gri-i28",
    # Heine-type transformations
    "heine-original", "gb-sym-heine", "gb-heine", "andrews1",
    "andrews-fl-r1", "andrews-fl-r2-s0", "andrews-fl-r2-s1",
    # the Lost Notebook family
    "1.4.1", "gb-1.4.1",
    "gb-1.4.2", "gb-1.4.2-h", "1.4.2",
    "gb-1.4.5", "gb-1.4.5-t", "1.4.5", "gb-entry-1.4.5",
    "gb-1.4.3-4", "1.4.3", "1.4.4",
    "1.4.10", "gb-1.4.11",
    "1.4.11-chain-1", "1.4.11-chain-2", "1.4.11-chain-3", "1.4.11",
    "gb-1.4.12", "1.4.12", "1.4.17",
    "gb-1.4.9", "1.4.9", "m-soros", "1.5.1",
    "gb-1.4.18", "1.4.18", "gb-1.4.18a", "gb-1.4.18-b0", "gb-1.4.18-b0a",
    "gb-1.6.5", "1.6.5-eq", "gb-1.6.5a", "gb-1.6.5e", "gb-1.6.5f",
    "gb-missing1", "gb-missing1a",
    # theta evaluations
    "gb-1.6.6", "1.6.6", "entry-1.6.6", "gb-1.6.6a", "entry-1.6.6-companion",
    "gb-1.6.5b", "gb-1.6.5c", "gb-1.6.5d",
    # multibasic transformations
    "gb-qlauricella-m1", "gb-qlauricella-m2", "gb-qlauricella-m3",
    "gb-qlauricella-1.4.1-m2",
    "gb-qlauricella-1.4.10a-m2", "gb-qlauricella-1.4.10b-n2",
    "gb-qlauricella-1.4.10c-m2", "gb-qlauricella-1.4.10d-n2",
    "gb-qlauricella-1.4.12a-m2", "gb-qlauricella-1.4.12b-n2",
]


def test_inventory_complete(catalog):
    missing = [rid for rid in EXPECTED_IDS if rid not in catalog]
    assert not missing, f"missing records: {missing}"
    assert len(EXPECTED_IDS) >= 44
    assert len(catalog) == len(EXPECTED_IDS)


def test_every_record_has_anchor(catalog_records):
    for record in catalog_records:
        assert record.anchor, record.id


def test_lineage_parents_resolve(catalog_records, catalog):
    for record in catalog_records:
        if record.lineage:
            assert record.lineage.parent in catalog, record.id
            assert record.lineage.kind in ("direct", "limit", "rebase")


def test_constraints_reference_declared_slots(catalog_records):
    from qsv.expr import free_names

    for record in catalog_records:
        declared = set(record.params) | set(record.exps)
        for constraint in record.constraints:
            assert free_names(constraint.expr) <= declared, record.id
