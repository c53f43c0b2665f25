"""Print two sha256 digests over the lattices of a fixed set of groups.

    PYTHONPATH=src python tests/lattice_digest.py [--each]

The groups are the default corpus entries (raw tables built and validated
as ``latsum verify`` builds them), the ``verify-general`` entries, the
``abelian-lattice`` and ``analyze-files`` groups of seeds 1-10 of the
benchmark in ``perfbench/``, and the larger products in ``EXTRA_SPECS``.
For each group, in that order, the first digest hashes its label, every
subgroup mask in the order of ``Lattice.subgroups``, the maximal masks in
their recorded order and the census; the second hashes the same with the
masks and the maximal masks sorted.  Two enumerators that find the same
lattices print the same second digest, and the same first one when they
also list them in the same order.  With ``--each`` it also prints both
digests of each group alone, one line per group, to find the groups that
differ.  Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

SEEDS = range(1, 11)
EXTRA_SPECS = [
    "cyclic:1680",
    "cyclic:1920",
    "product:sym:4+cyclic:35",
    "product:elem:2,5+cyclic:15",
    "product:pq:2,3+cyclic:95",
    "product:dihedral:8+cyclic:9",
    "product:elem:3,3+cyclic:4",
    "product:pq:3,7+cyclic:10",
    "product:elem:2,6+elem:3,2",
    "product:elem:2,7+cyclic:3",
]


def groups():
    """(label, group) for every group of the check, in a fixed order."""
    from latsum import Group, GroupSpec
    from latsum.cli import load_group
    from latsum.corpus import build_default_corpus
    from workloads import MAX_ORDER, VERIFY_CORPUS, AbelianLattice, AnalyzeFiles

    def corpus(**kwargs):
        for label, source in build_default_corpus(**kwargs):
            if isinstance(source, GroupSpec):
                yield label, source.build()
            else:
                group = Group(source, label)
                group.validate()
                yield label, group

    yield from corpus()
    yield from corpus(elem_max=0, **VERIFY_CORPUS["full"])
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for item in AbelianLattice("full", seed, Path(tmp)).build():
                yield item.entry, item.group
            for item in AnalyzeFiles("full", seed, Path(tmp) / str(seed)).build():
                yield item.entry, load_group(item.payload, MAX_ORDER)
    for spec in EXTRA_SPECS:
        yield spec, GroupSpec.parse(spec).build()


def main(argv: list[str]) -> int:
    from latsum import enumerate_subgroups, maximal_subgroups

    in_order, in_sorted, count = hashlib.sha256(), hashlib.sha256(), 0
    for label, group in groups():
        lat = enumerate_subgroups(group, 500_000)
        masks = [s.mask for s in lat.subgroups]
        maximals = [m.mask for m in maximal_subgroups(lat)]
        census = repr(sorted(lat.census.items()))
        each = []
        for digest, listed, kept in ((in_order, masks, maximals), (in_sorted, sorted(masks), sorted(maximals))):
            text = (
                f"{label}\n" + " ".join(map("{:x}".format, listed))
                + "\n" + " ".join(map("{:x}".format, kept)) + f"\n{census}\n"
            ).encode()
            digest.update(text)
            each.append(hashlib.sha256(text).hexdigest()[:16])
        if "--each" in argv:
            print(label, *each)
        count += 1
    print(f"groups {count}")
    print(f"in order {in_order.hexdigest()}")
    print(f"sorted   {in_sorted.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
