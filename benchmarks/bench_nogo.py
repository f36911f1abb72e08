"""Benchmark the two-valued homomorphism search behind the no-go checks.

Times, best of ``--repeat``:

- ``find_assignment`` on the bundled ks18-d4 and ks33-d3 ray sets, each an
  uncolourable set whose search also extracts a deletion-minimal core, and
  on the standard bases of C^100 and C^300 (one context each), beside the
  rows of the relation table it searches first, over every context;
- ``_two_valued`` on the last relation table that ``extend_and_check``
  searches for the (4, 1) maximality probe of ``bench_closure.py`` (seed
  ``SEED``, budget 512), trying 0 before 1 as every search does, under the
  extension check's node cap;
- ``local_map_search`` (the CHSH linear program) on the singlet's table at
  the default ``qpt chsh`` angles and at ``0,π/2,0,π/2``. scipy is imported
  before the clock starts;
- ``RaySet.from_file`` on the standard bases of C^300 and C^1000, written
  to a temporary directory: parsing, normalisation, the Gram matrix and the
  context search.

Usage:
    python benchmarks/bench_nogo.py [--repeat 5]
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path

import numpy as np
from bench_closure import SEED, probe_generators

from qpt import RaySet, find_assignment, nogo
from qpt.lattice import _ClosureRun, _two_valued
from qpt.linalg import DEFAULT_TOL
from qpt.nogo import ChshSetting, correlation_table, local_map_search, setting_ray_sets, singlet

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "qpt" / "fixtures"


def best_of(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def relation_rows(rs: RaySet) -> int:
    """Rows of the relation table that ``find_assignment`` searches first,
    the one over every context of ``rs``."""
    seen = []

    def spy(n, relations, node_cap):
        seen.append(len(relations))
        return _two_valued(n, relations, node_cap)

    nogo._two_valued = spy
    try:
        nogo._assign(rs, range(len(rs.contexts)))
    finally:
        nogo._two_valued = _two_valued
    return seen[0]


def final_relations(seed: int) -> tuple[int, np.ndarray]:
    """(elements, relation table) of the last round extend_and_check searches."""
    run = _ClosureRun(probe_generators(seed), 512, DEFAULT_TOL)
    while True:
        grew = run.step()
        unsat = _two_valued(len(run), run.relations, node_cap=100000) is False
        if unsat or run.saturated or not grew:
            return len(run), run.relations


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    print(f"repeat={args.repeat}  seed={SEED}")
    print("find_assignment, bundled fixtures and standard bases")
    print(f"{'ray set':>8}  {'rays':>4}  {'contexts':>8}  {'relations':>9}  {'result':>12}  {'time (ms)':>9}")
    ray_sets = {name: RaySet.from_file(FIXTURES / f"{name}.rays") for name in ("ks18-d4", "ks33-d3")}
    ray_sets.update({f"e{d}": RaySet(list(np.eye(d))) for d in (100, 300)})
    for name, rs in ray_sets.items():
        result = type(find_assignment(rs)).__name__
        t = best_of(lambda: find_assignment(rs), args.repeat)
        print(f"{name:>8}  {len(rs.rays):>4}  {len(rs.contexts):>8}  {relation_rows(rs):>9}  "
              f"{result:>12}  {t * 1e3:>9.3f}")

    print("two-valued search, last relation table of the (4, 1) extension probe")
    print(f"{'elements':>8}  {'relations':>9}  {'result':>8}  {'time (ms)':>9}")
    n, rels = final_relations(SEED)
    found = _two_valued(n, rels, node_cap=100000)
    result = "map" if found else {False: "none", None: "capped"}[found]
    t = best_of(lambda: _two_valued(n, rels, node_cap=100000), args.repeat)
    print(f"{n:>8}  {len(rels):>9}  {result:>8}  {t * 1e3:>9.3f}")

    print("local_map_search, singlet tables")
    print(f"{'angles':>28}  {'result':>13}  {'time (ms)':>9}")
    for name, setting in (
        ("default", ChshSetting.optimal()),
        ("0,pi/2,0,pi/2", ChshSetting((0.0, np.pi / 2), (0.0, np.pi / 2))),
    ):
        rs_a, rs_b = setting_ray_sets(setting)
        table = correlation_table(singlet(), setting)
        result = type(local_map_search(rs_a, rs_b, table)).__name__
        t = best_of(lambda: local_map_search(rs_a, rs_b, table), args.repeat)
        print(f"{name:>28}  {result:>13}  {t * 1e3:>9.3f}")

    print("RaySet.from_file, standard bases")
    print(f"{'file':>10}  {'rays':>4}  {'contexts':>8}  {'time (ms)':>9}")
    with tempfile.TemporaryDirectory() as tmp:
        for d in (300, 1000):
            path = Path(tmp) / f"e{d}.rays"
            path.write_text("".join(",".join("1" if j == i else "0" for j in range(d)) + "\n"
                                    for i in range(d)))
            rs = RaySet.from_file(path)
            t = best_of(lambda: RaySet.from_file(path), args.repeat)
            print(f"{path.name:>10}  {len(rs.rays):>4}  {len(rs.contexts):>8}  {t * 1e3:>9.3f}")


if __name__ == "__main__":
    main()
