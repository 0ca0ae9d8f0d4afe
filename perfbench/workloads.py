"""The benchmark's workloads: seeded input files and the correctness gate.

Each workload is one `torushom all` job on files written here.  The seed
relabels the preset's vertices by a permutation and shuffles the facet
order and the vertex order inside each facet line.  Different seeds give
different pivot orders but the same mathematics, so the gate checks only
invariants that no relabelling can change.
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

DEFAULT_SEED = 20140518


def _cross4_charmap():
    """The coordinate map: vertex i -> e_i and vertex i + 4 -> -e_i."""
    rows = {}
    for i in range(1, 5):
        e = tuple(int(k == i - 1) for k in range(4))
        rows[i] = e
        rows[i + 4] = tuple(-x for x in e)
    return rows


CROSS4_COMMON = {
    "f": [1, 8, 24, 32, 16],
    "h": [1, 4, 6, 4, 1],
    "h_double_prime": [1, 4, 6, 4, 1],
    "borders": [[1, 4, 6, 8, 1], [1, 4, 6, 4, 1], [1, 4, 6, 4, 1]],
}

WORKLOADS = {
    "torus7_Q": {
        "preset": "torus_7",
        "charmap": "torus_7",
        "field": "Q",
        "why": "headline slow job: Q arithmetic on many small dense exterior-algebra "
               "matrices; the only Buchsbaum, non-Cohen-Macaulay input, so the "
               "second-kind kernel is nonzero",
        "expect": {
            "f": [1, 7, 21, 14],
            "h": [1, 4, 10, -1],
            "borders": [[1, 10, 7, 1], [1, 10, 4, 1], [1, 4, 4, 1]],
            "first_kind_quotient": [1, 10, 4, 1],
            "full_quotient": [1, 4, 4, 1],
            "kernel_generators": 6,
            "bigraded_totals": [1, 0, 4, 0, 10, 2, 1],
        },
    },
    "cross4_Fp": {
        "preset": "cross_polytope_boundary(4)",
        "charmap": "cross4",
        "field": "Fp:1000003",
        "why": "full pipeline at torus rank 4 over F_p: no Fraction work, so F_p "
               "kernels show and a Q-only change should not move it",
        "expect": dict(CROSS4_COMMON, full_quotient=[1, 4, 6, 4, 1], kernel_generators=0),
    },
    "cross4_Q": {
        "preset": "cross_polytope_boundary(4)",
        "charmap": None,
        "field": "Q",
        "why": "no charmap, so torusalg and facering are skipped; time goes to "
               "recomputed face vectors, local homology data and classify on large "
               "sparse boundary matrices",
        "expect": CROSS4_COMMON,
    },
}


def _charmap_rows(name):
    if name == "cross4":
        return _cross4_charmap()
    from torushom.fixtures import CHARMAPS
    return CHARMAPS[name]


def input_texts(workload: str, seed: int) -> dict:
    """The input files of one workload at one seed, as {file name: text}."""
    from torushom.poset import preset

    spec = WORKLOADS[workload]
    S = preset(spec["preset"])
    facets = [list(S.vertex_sets[i]) for i in S.maximal_elements()]
    labels = sorted({v for f in facets for v in f})
    rng = random.Random(f"{workload}:{seed}")
    relabel = dict(zip(labels, rng.sample(labels, len(labels))))
    facets = [[relabel[v] for v in f] for f in facets]
    for f in facets:
        rng.shuffle(f)
    rng.shuffle(facets)
    files = {f"{workload}.facets":
             "facets v1\n" + "".join(" ".join(map(str, f)) + "\n" for f in facets)}
    if spec["charmap"]:
        rows = {relabel[v]: r for v, r in _charmap_rows(spec["charmap"]).items()}
        n = len(next(iter(rows.values())))
        files[f"{workload}.charmap"] = f"charmap v1 n={n}\n" + "".join(
            f"{v}: " + " ".join(map(str, rows[v])) + "\n" for v in sorted(rows))
    return files


def write_inputs(workload: str, seed: int, directory: Path) -> list:
    """Write the workload's input files and return the `torushom` argv."""
    spec = WORKLOADS[workload]
    texts = input_texts(workload, seed)
    for name, text in texts.items():
        (directory / name).write_text(text, encoding="utf-8")
    argv = ["all", "--facets", str(directory / f"{workload}.facets"), "--field", spec["field"]]
    if spec["charmap"]:
        argv += ["--charmap", str(directory / f"{workload}.charmap")]
    return argv


def _ranks(d: dict) -> list:
    return [d[k] for k in sorted(d, key=int)]


def check_report(workload: str, returncode: int, stdout: bytes) -> list:
    """Problems with one job's result; an empty list means it passed."""
    if returncode != 0:
        return [f"exit status {returncode}"]
    try:
        report = json.loads(stdout)
        res = report["results"]
        got = {"f": res["vectors"]["vectors"]["f"],
               "h": res["vectors"]["vectors"]["h"],
               "h_double_prime": res["vectors"]["vectors"]["h_double_prime"],
               "borders": [p["border"] for p in res["specseq"]["pages"]],
               "bigraded_totals": res["specseq"]["bigraded"]["totals"]}
        if "facering" in res:
            fr = res["facering"]
            got["first_kind_quotient"] = _ranks(fr["first_kind_quotient"])
            if "full_quotient" in fr:
                got["full_quotient"] = _ranks(fr["full_quotient"])
                got["kernel_generators"] = fr["kernel_generators"]["count"]
    except (ValueError, KeyError, TypeError) as e:
        return [f"unreadable report: {e!r}"]
    problems = [] if report.get("ok") is True else ['"ok" is not true']
    for key, want in WORKLOADS[workload]["expect"].items():
        if got.get(key) != want:
            problems.append(f"{key}: expected {want}, got {got.get(key)}")
    return problems


if __name__ == "__main__":
    # python3 workloads.py WORKLOAD SEED DIR: write the inputs, print the argv
    print(json.dumps(write_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))))
