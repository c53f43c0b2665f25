"""Write the golden lattice file for the default corpus.

    PYTHONPATH=src python tests/make_golden_lattices.py [OUT]

For each default-corpus entry the file holds the subgroup count, the census,
and the sha256 of the sorted subgroup masks and of the sorted maximal-subgroup
masks.  ``test_acceptance`` compares every enumerated lattice against it, so
a change to the enumerator that loses, adds or misclassifies one subgroup
shows up against a file written by an earlier enumerator.  OUT defaults to
``tests/data/default_corpus_lattices.json``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).parent / "data" / "default_corpus_lattices.json"


def masks_sha256(masks) -> str:
    text = "\n".join(format(m, "x") for m in sorted(masks))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def lattice_record(lat, maximals) -> dict:
    return {
        "subgroup_count": len(lat),
        "census": {str(order): count for order, count in sorted(lat.census.items())},
        "subgroups_sha256": masks_sha256(s.mask for s in lat.subgroups),
        "maximals_sha256": masks_sha256(m.mask for m in maximals),
    }


def main(argv: list[str]) -> int:
    from latsum import Group, GroupSpec, enumerate_subgroups, maximal_subgroups
    from latsum.corpus import DEFAULT_VERIFY_MAX_SUBGROUPS, build_default_corpus

    out = Path(argv[0]) if argv else GOLDEN_PATH
    records = {}
    for label, source in build_default_corpus():
        if isinstance(source, GroupSpec):
            group = source.build()
        else:  # a raw table, built and validated as ``latsum verify`` builds it
            group = Group(source, label)
            group.validate()
        lat = enumerate_subgroups(group, DEFAULT_VERIFY_MAX_SUBGROUPS)
        records[label] = lattice_record(lat, maximal_subgroups(lat))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} entries to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
