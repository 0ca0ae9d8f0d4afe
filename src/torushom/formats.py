"""Text formats for posets, characteristic maps, and profiles.

This module owns the two input records, `CharacteristicMap` and
`ManifoldProfile`, so parsing them loads no layer that computes with them.

Cover table (general format, expresses parallel faces)::

    simplicial-poset v1
    0 0 - -
    1 1 1 0
    2 1 2 0
    3 2 1,2 1,2
    4 2 1,2 1,2

Columns: id, rank, comma-separated vertex labels, comma-separated covered
ids; `-` stands for the empty list.  The empty face must have id 0.

Facet list (simplicial complexes only)::

    facets v1
    1 2 4
    2 3 5

Characteristic map::

    charmap v1 n=3
    1: 1 0 0
    2: 0 1 0

Profile files are JSON objects with keys n, bQ, bQrel, rank_delta and an
optional source tag, "user" (the default) or "cone"; the CLI accepts
"cone" only on the cone profile of the poset.
"""
from __future__ import annotations

import json
from typing import NamedTuple

from .errors import InputError
from .poset import SimplicialPoset, build_from_cover_table, build_from_facets


class CharacteristicMap(NamedTuple):
    """Integer direction vectors, one row per vertex label."""

    n: int
    rows: dict                    # vertex label -> tuple of n ints

    def row(self, label):
        try:
            return self.rows[label]
        except KeyError:
            raise InputError(f"characteristic map has no row for vertex {label}") from None

    def field_rows(self, field):
        return {lab: [field(v) for v in row] for lab, row in self.rows.items()}

    def key(self):
        """Hashable content of the map: equal maps give equal keys."""
        return self.n, tuple(sorted((lab, tuple(row)) for lab, row in self.rows.items()))


class ManifoldProfile(NamedTuple):
    """Rank data of the orbit space: b(Q), b(Q, dQ) and connecting ranks."""

    n: int
    bQ: tuple
    bQrel: tuple
    rank_delta: tuple            # ranks of delta_1 ... delta_n
    source: str = "user"         # "cone" or "user"

    def as_dict(self):
        return {"n": self.n, "bQ": list(self.bQ), "bQrel": list(self.bQrel),
                "rank_delta": list(self.rank_delta), "source": self.source}

    @classmethod
    def from_dict(cls, d):
        source = str(d.get("source", "user"))
        if source not in ("cone", "user"):
            raise InputError(f"profile source must be 'cone' or 'user', not {source!r}")
        return cls(int(d["n"]), tuple(int(x) for x in d["bQ"]),
                   tuple(int(x) for x in d["bQrel"]),
                   tuple(int(x) for x in d["rank_delta"]), source)


def _split_list(tok: str):
    if tok == "-":
        return []
    return [int(x) for x in tok.split(",") if x != ""]


def parse_cover_table(text: str, name="") -> SimplicialPoset:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != "simplicial-poset v1":
        raise InputError("cover table must start with 'simplicial-poset v1'")
    entries = []
    for k, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 4:
            raise InputError(f"line {k}: expected 'id rank vertices covers'")
        try:
            entries.append((int(parts[0]), int(parts[1]),
                            _split_list(parts[2]), _split_list(parts[3])))
        except ValueError as e:
            raise InputError(f"line {k}: {e}") from None
    return build_from_cover_table(entries, name=name)


def write_cover_table(S: SimplicialPoset) -> str:
    out = ["simplicial-poset v1"]
    for i in range(S.size):
        vs = ",".join(str(v) for v in S.vertex_sets[i]) or "-"
        cov = ",".join(str(c) for c in S.covers[i]) or "-"
        out.append(f"{i} {S.ranks[i]} {vs} {cov}")
    return "\n".join(out) + "\n"


def parse_facet_list(text: str, name="") -> SimplicialPoset:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != "facets v1":
        raise InputError("facet list must start with 'facets v1'")
    facets = []
    for k, ln in enumerate(lines[1:], start=2):
        try:
            facets.append([int(x) for x in ln.split()])
        except ValueError:
            raise InputError(f"line {k}: vertices must be integers") from None
    return build_from_facets(facets, name=name)


def parse_charmap(text: str) -> CharacteristicMap:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("charmap v1"):
        raise InputError("characteristic map must start with 'charmap v1 n=<n>'")
    head = lines[0].split()
    if len(head) != 3 or not head[2].startswith("n="):
        raise InputError("characteristic map header needs n=<n>")
    try:
        n = int(head[2][2:])
    except ValueError:
        raise InputError("bad torus rank in header") from None
    rows = {}
    for k, ln in enumerate(lines[1:], start=2):
        if ":" not in ln:
            raise InputError(f"line {k}: expected 'vertex: entries'")
        lab, rest = ln.split(":", 1)
        try:
            label = int(lab)
            entries = tuple(int(x) for x in rest.split())
        except ValueError:
            raise InputError(f"line {k}: integers expected") from None
        if len(entries) != n:
            raise InputError(f"line {k}: expected {n} entries")
        if label in rows:
            raise InputError(f"line {k}: duplicate vertex {label}")
        rows[label] = entries
    if not rows:
        raise InputError("characteristic map has no rows")
    return CharacteristicMap(n, rows)


def write_charmap(cmap: CharacteristicMap) -> str:
    out = [f"charmap v1 n={cmap.n}"]
    for lab in sorted(cmap.rows):
        out.append(f"{lab}: " + " ".join(str(v) for v in cmap.rows[lab]))
    return "\n".join(out) + "\n"


def parse_profile(text: str) -> ManifoldProfile:
    try:
        data = json.loads(text)
    except ValueError as e:         # JSONDecodeError, or an integer past int's digit limit
        raise InputError(f"profile is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise InputError("profile must be a JSON object")
    for key in ("n", "bQ", "bQrel", "rank_delta"):
        if key not in data:
            raise InputError(f"profile misses key {key!r}")
    try:
        return ManifoldProfile.from_dict(data)
    except (TypeError, ValueError, OverflowError) as e:
        raise InputError(f"bad profile: {e}") from None


def write_profile(P: ManifoldProfile) -> str:
    return json.dumps(P.as_dict(), sort_keys=True, indent=2) + "\n"
