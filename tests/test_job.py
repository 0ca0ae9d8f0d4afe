"""The per-job cache: each invariant of a (poset, field) pair is built once."""
import contextlib
import gc
import hashlib
import importlib
import io
import os
import subprocess
import sys
import weakref
from collections import Counter
from fractions import Fraction

import pytest

import torushom
from torushom import facering, fixtures, formats, job as job_module, specseq, torusalg
from torushom.cli import main
from torushom.field import QQ, PrimeField
from torushom.fixtures import CHARMAPS, preset_charmap
from torushom.formats import write_charmap
from torushom.complexes import (GradedComplex, HomologyProfile, betti,
                                cellular_chain_complex, classify, reduced_betti)
from torushom.facevec import face_vectors, ft_consistency_check
from torushom.poset import preset, validate
from torushom.sheaves import CellularSheaf, LocalHomologyData, sheaf_cohomology
from torushom.torusalg import CharacteristicMap

from oracles import (ideal_sheaf, lambda_mod_pi_cosheaf, local_homology_sheaf, pi_cosheaf,
                     quotient_sheaf, sheaf_dump, structure_tensor_ideal, structure_tensor_quotient,
                     without_empty_stalk)

# sha256 of the `all` report, recorded before the job cache existed
GOLDEN = {
    ("torus_7", "Q"):
        "f6ce2e7f7be9ea7572c8a15f191a62b96235281e0f2457c80fbe9f82f190e3dc",
    ("cross_polytope_boundary(3)", "Fp:3"):
        "79dd069a572db562e2f3003838bf5c32cfc751b2c10d9a6311f3e0721d10812d",
    # the one pinned report over a prime field with second-kind kernel
    # generators (6 of them); recorded before the face ring read the kit
    ("torus_7", "Fp:3"):
        "7a59227ee4105a14717b38bf44a96136368ac4578555536b4498f8a20dfa766f",
    # torus rank 4, the coordinate map (see `JOBS`); recorded before the kit
    # read its ideal and lambda/pi tables off the long exact sequences
    ("cross4", "Fp:1000003"):
        "72dcfe2619f9a52036639c16c1853ae92d47a1187486b7fef17037f95f90df2b",
    ("cross4", "Q"):
        "f8ac071d891cddd76089ba8aec547b0a238860e342da9ceb546dac9d8af867eb",
    # the one pinned report whose second-kind rows come from the degree-0
    # cocycles, the kernel of the orientation row; recorded before the face
    # ring built its relation rows sparse
    ("digon_cycle(2)", "Q"):
        "ce9ae87fb30a10eafd8dfa4b2f99b6e6a2173c03abbf0cfbbb55d2adc60ba25c",
}


def _coordinate_map(n):
    """Vertex i -> e_i and vertex i + n -> -e_i."""
    rows = {}
    for i in range(1, n + 1):
        rows[i] = tuple(int(k == i - 1) for k in range(n))
        rows[i + n] = tuple(-x for x in rows[i])
    return CharacteristicMap(n, rows)


def _padded_torus_7_map(n):
    """The torus_7 map with n - 3 zero columns appended: torus rank n."""
    return CharacteristicMap(n, {v: r + (0,) * (n - 3)
                                 for v, r in preset_charmap("torus_7").rows.items()})


# pinned jobs whose map is not their preset's own: name -> (preset, map)
JOBS = {"cross4": ("cross_polytope_boundary(4)", _coordinate_map(4))}


def _job_input(name):
    return JOBS.get(name) or (name, preset_charmap(name))


class _Counts:
    """Counts the uncached work done during one `all` job."""

    def __init__(self, mp):
        self.local_data = Counter()       # field name
        self.structure_builds = Counter()  # field name -> sheaves named "structure" made
        self.work = Counter()             # (what, poset, field name)
        self.cohomology = Counter()       # sheaf name
        self.sheaf_calls = self.cosheaf_calls = 0
        self.structure_calls = []         # include_empty of each structure-sheaf complex
        self.wedges_per_form = Counter()  # face -> wedges made forming its top form

        init = LocalHomologyData.__init__

        def counting_init(data, S, field):
            self.local_data[field.name] += 1
            init(data, S, field)

        mp.setattr(LocalHomologyData, "__init__", counting_init)
        sheaf_init = CellularSheaf.__init__

        def counting_sheaf_init(sheaf, S, field, *args, **kwargs):
            sheaf_init(sheaf, S, field, *args, **kwargs)
            if sheaf.name == "structure":
                self.structure_builds[field.name] += 1

        mp.setattr(CellularSheaf, "__init__", counting_sheaf_init)
        for name in ("classify_of", "face_vectors_of", "cone_profile_of"):
            self._count_work(mp, name)

        sheaf_cohomology = torusalg.sheaf_cohomology

        def counting_sheaf(sheaf):
            if sheaf._step > 0:
                self.sheaf_calls += 1
            else:
                self.cosheaf_calls += 1
            self.cohomology[sheaf.name] += 1
            return sheaf_cohomology(sheaf)

        mp.setattr(torusalg, "sheaf_cohomology", counting_sheaf)

        job_sheaf_cohomology = job_module.sheaf_cohomology

        def counting_structure(sheaf):
            self.structure_calls.append(sheaf.include_empty)
            return job_sheaf_cohomology(sheaf)

        mp.setattr(job_module, "sheaf_cohomology", counting_structure)

        forming = []                      # the face whose top form is asked for
        pi_form, wedge = torusalg.TorusSheafKit.pi_form, torusalg.ExteriorAlgebra.wedge

        def counting_pi_form(kit, elem):
            forming.append(elem)
            try:
                return pi_form(kit, elem)
            finally:
                forming.pop()

        def counting_wedge(ext, *args):
            if forming:
                self.wedges_per_form[forming[-1]] += 1
            return wedge(ext, *args)

        mp.setattr(torusalg.TorusSheafKit, "pi_form", counting_pi_form)
        mp.setattr(torusalg.ExteriorAlgebra, "wedge", counting_wedge)

    def _count_work(self, mp, name):
        fn = getattr(job_module, name)

        def counting(job):
            self.work[(name, job.S, job.field.name)] += 1
            return fn(job)

        mp.setattr(job_module, name, counting)


@pytest.fixture(scope="module", params=sorted(GOLDEN), ids=lambda k: f"{k[0]}-{k[1]}")
def all_job(request, tmp_path_factory):
    name, field = request.param
    preset_name, cmap = _job_input(name)
    path = tmp_path_factory.mktemp("job") / "map.lam"
    path.write_text(write_charmap(cmap))
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        counts = _Counts(mp)
        status = main(["all", "--preset", preset_name, "--charmap", str(path), "--field", field])
    return request.param, status, out.getvalue(), counts


def test_all_report_matches_golden(all_job):
    key, status, stdout, _ = all_job
    assert status == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN[key]


def test_verify_report_at_torus_rank_5_matches_golden(tmp_path):
    # torus_7 with its map padded to torus rank 5 over F3: the greedy
    # completion of a face is not just the standard vectors its directions
    # miss.  `all` refuses the map (the face ring needs torus rank equal to
    # the poset rank), so the `verify` report is pinned; recorded before the
    # kit read its ideal and lambda/pi tables off the long exact sequences
    path = tmp_path / "map.lam"
    path.write_text(write_charmap(_padded_torus_7_map(5)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["verify", "--preset", "torus_7", "--charmap", str(path), "--field", "Fp:3"])
    assert status == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
        "3029555f51baf79b15e90264b69f1ea0b694318164a44e12880b22115e7be88c"


def test_all_job_computes_each_invariant_once(all_job):
    (name, field), _, _, counts = all_job
    main_field = "Q" if field == "Q" else "F" + field.split(":")[1]
    extra = ["F2", "F3", "F5"] if field == "Q" else []
    assert counts.local_data == Counter({f: 1 for f in [main_field] + extra})
    # only the active field builds a structure sheaf, one, with its
    # empty-face stalk; the classification fields read link dimensions alone
    assert counts.structure_builds == Counter({main_field: 1})
    assert counts.work and set(counts.work.values()) == {1}
    classified = sorted(f for (what, _, f) in counts.work if what == "classify_of")
    assert classified == sorted([main_field] + extra)
    # each kit degree ranks one sheaf complex, structure (x) quotient
    # untruncated, and one cosheaf complex, pi; the truncated quotient table
    # is read off the same complex and the ideal and lambda/pi tables off the
    # long exact sequences.  The constant terms and the representatives the
    # kit projects come from the job's one structure-sheaf complex,
    # untruncated, whose truncated table is read off it too
    kit_rank = _job_input(name)[1].n
    assert counts.sheaf_calls == kit_rank + 1
    assert counts.cosheaf_calls == kit_rank + 1
    assert set(counts.cohomology.values()) == {1}
    assert counts.structure_calls == [True]


def test_all_job_forms_each_top_form_once(all_job):
    # the principal ideals and the face ring's coefficients read one top
    # form per nonempty face, wedged from its vertices' rows once
    (name, _), _, _, counts = all_job
    S = preset(_job_input(name)[0])
    assert counts.wedges_per_form == Counter(
        {e: len(S.vertex_sets[e]) for e in range(1, S.size)})


@contextlib.contextmanager
def _local_homology_calls():
    """Counts `LocalHomologyData` builds and restriction matrices by field name."""
    calls = {"builds": Counter(), "restrictions": Counter()}
    init, restriction = LocalHomologyData.__init__, LocalHomologyData.restriction

    def counting_init(data, S, field):
        calls["builds"][field.name] += 1
        init(data, S, field)

    def counting_restriction(data, j1, j2, i):
        calls["restrictions"][data.field.name] += 1
        return restriction(data, j1, j2, i)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LocalHomologyData, "__init__", counting_init)
        mp.setattr(LocalHomologyData, "restriction", counting_restriction)
        yield calls


def test_classify_builds_no_structure_sheaf():
    S = preset("torus_7")
    F3 = PrimeField(3)
    with _local_homology_calls() as calls:
        assert classify(S, F3).buchsbaum
        assert calls["builds"] == Counter({"F3": 1})
        assert calls["restrictions"] == Counter()
        job = S.job(F3)
        assert job.structure_sheaf().stalk_dims[0] == 1
        assert calls["builds"] == Counter({"F3": 1})
        assert calls["restrictions"]["F3"] > 0
    assert "local_homology" not in vars(job)     # released with the sheaf


def test_classification_keeps_dimensions_only_and_ranks_no_star_twice(monkeypatch):
    # a classification-only job keeps dimensions alone; a structure sheaf
    # asked for afterwards maps the stars into the field again, unranked,
    # and ranks only its own complex, which certifies it
    S = preset("torus_7")
    F3 = PrimeField(3)
    ranked = _ranked_complexes(monkeypatch)
    assert classify(S, F3).buchsbaum
    local = S.job(F3).local_homology
    assert local._profiles == {} and sorted(local._dims) == list(range(S.size))
    assert len(ranked) == S.size
    S.job(F3).structure_sheaf()
    assert len(ranked) == S.size + 1
    assert ranked[-1] is S.job(F3).structure_profile.complex


def test_structure_sheaf_first_then_link_dims_builds_once():
    S = preset("boundary_of_simplex(3)")
    with _local_homology_calls() as calls:
        job = S.job(QQ)
        job.structure_sheaf()
        assert {d: v for d, v in job.link_dims[1].items() if v} == {S.n - 1: 1}
        assert classify(S, QQ).cohen_macaulay
        assert calls["builds"] == Counter({"Q": 1})


def test_standard_local_homology_sheaf_reads_the_job():
    S = preset("torus_7")
    direct = LocalHomologyData(S, QQ)
    S.job(QQ).link_dims
    with _local_homology_calls() as calls:
        for d in range(S.n):
            sheaf = local_homology_sheaf(S.job(QQ).local_homology, d, f"loc({d})")
            assert sheaf_dump(sheaf) == sheaf_dump(local_homology_sheaf(direct, d, f"loc({d})"))
        assert calls["builds"] == Counter()


FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(5))


def test_each_integer_star_is_built_and_checked_once(monkeypatch):
    # the star complexes have incidence signs for entries: one build and one
    # d∘d check per star and poset, over the integers, serve every field
    S = preset("torus_7")
    checked = []
    check = GradedComplex.check_square_zero
    monkeypatch.setattr(GradedComplex, "check_square_zero",
                        lambda cx: checked.append(cx) or check(cx))
    for field in FIELDS:
        classify(S, field)
        betti(S, field)
        reduced_betti(S, field)
    assert len(checked) == S.size == 43
    assert sorted(map(id, checked)) == sorted(map(id, S._stars.values()))
    assert sorted(S._stars) == list(range(S.size))
    assert all(cx.field == QQ for cx in checked)


def _ranked_complexes(monkeypatch):
    """The complexes `HomologyProfile` ranks from now on, in order."""
    ranked = []
    init = HomologyProfile.__init__
    monkeypatch.setattr(HomologyProfile, "__init__",
                        lambda prof, cx, dims=None:
                        (dims is None and ranked.append(cx)) or init(prof, cx, dims))
    return ranked


def test_betti_numbers_build_and_rank_only_star_0(monkeypatch):
    S = preset("torus_7")
    ranked = _ranked_complexes(monkeypatch)
    assert betti(S, PrimeField(3)) == {0: 1, 1: 2, 2: 1}
    assert list(S._stars) == [0]
    assert len(ranked) == 1 and ranked[0].labels is S._stars[0].labels


def _table(cx):
    return cx.labels, cx.dims, {d: m.rows for d, m in cx.diff.items()}


@pytest.mark.parametrize("name", sorted(CHARMAPS))
def test_integer_stars_are_left_unchanged_by_every_field(name, monkeypatch):
    S = preset(name)
    ranked = _ranked_complexes(monkeypatch)
    for field in FIELDS:
        S.job(field).structure_sheaf()
        classify(S, field)
    fresh = preset(name)
    for j in range(fresh.size):
        cellular_chain_complex(fresh, QQ, star=j)
    assert {j: _table(cx) for j, cx in S._stars.items()} == \
        {j: _table(cx) for j, cx in fresh._stars.items()}
    entries = {v for cx in S._stars.values() for m in cx.diff.values()
               for row in m.rows for v in row}
    assert entries <= {-1, 0, 1} and {type(v) for v in entries} == {int}
    # every star complex a prime field ranked holds its entries in [0, p)
    assert {cx.field for cx in ranked} == set(FIELDS)
    for cx in ranked:
        p = cx.field.char
        if p:
            assert all(0 <= v < p for m in cx.diff.values() for row in m.rows for v in row)


def test_job_is_shared_per_poset_and_field():
    S = preset("boundary_of_simplex(2)")
    T = preset("boundary_of_simplex(2)")
    assert S.job(QQ) is S.job(QQ)
    assert S.job(PrimeField(3)) is S.job(PrimeField(3))
    assert S.job(QQ) is not S.job(PrimeField(3))
    assert S.job(QQ) is not T.job(QQ)          # equal content, distinct posets
    assert face_vectors(S, QQ) is face_vectors(S, QQ)
    assert classify(S, QQ) is classify(S, QQ)


def test_public_results_are_copies():
    S = preset("boundary_of_simplex(2)")
    rb = reduced_betti(S, QQ)
    rb[0] = 99
    assert reduced_betti(S, QQ)[0] == 0


def test_poset_is_frozen_with_identity_hash():
    S = preset("torus_7")
    with pytest.raises(AttributeError):
        S.name = "other"
    with pytest.raises(AttributeError):
        del S.covers
    with pytest.raises(AttributeError):
        S.anything = 1
    for table in (S.ranks, S.vertex_sets, S.covers, S.covered_by, S.below):
        assert isinstance(table, tuple)
    assert all(isinstance(c, tuple) for c in S.covers)
    assert hash(S) == object.__hash__(S)
    assert S != preset("torus_7")


def test_report_records_are_immutable():
    S = preset("torus_7")
    cmap = preset_charmap("torus_7")
    P = S.job(QQ).cone_profile
    R = facering.relation_system(S, cmap, QQ)
    records = [validate(S), classify(S, QQ), face_vectors(S, QQ),
               ft_consistency_check(S, QQ), S.job(QQ).constancy, P,
               specseq.validate_profile(S, P, QQ),
               *specseq.pages(S, P, QQ), specseq.bigraded_betti(S, P, QQ),
               specseq.e2_border_sheaf_crosscheck(S, cmap, QQ),
               specseq.theorem_checks(S, P, QQ), cmap, torusalg.validate_charmap(S, cmap, QQ),
               torusalg.keylemma_check(S, cmap, QQ), torusalg.duality_check(S, cmap, QQ),
               torusalg.les_duality_check(S, cmap, QQ), facering.kernel_generators(R)]
    assert len({type(r) for r in records}) == 17
    for rec in records:
        assert isinstance(rec, tuple)
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], None)
        with pytest.raises(AttributeError):
            rec.anything = None


def _fresh_process(code, *argv):
    """stdout words of `code` run in a new interpreter that imports the package."""
    src = os.path.dirname(os.path.dirname(torushom.__file__))
    return subprocess.run([sys.executable, "-S", "-c", code, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          check=True).stdout.split()


def test_importing_the_cli_loads_no_record_machinery():
    # records are named tuples and the other classes plain classes, so no
    # code is generated at import and neither module is loaded
    out = _fresh_process("import sys, torushom.cli; print(*sorted(sys.modules))")
    assert "torushom.cli" in out
    assert "dataclasses" not in out and "inspect" not in out


def test_cli_import_and_input_parsing_load_only_their_layers(tmp_path):
    # the benchmark's set-up probe: each process compiles every module it
    # imports, so set-up must reach no layer that computes
    S = preset("torus_7")
    facets = tmp_path / "t7.facets"
    facets.write_text("facets v1\n" + "".join(
        " ".join(map(str, S.vertex_sets[i])) + "\n"
        for i in range(S.size) if S.ranks[i] == S.n), encoding="utf-8")
    charmap = tmp_path / "t7.lam"
    charmap.write_text(write_charmap(preset_charmap("torus_7")), encoding="utf-8")
    loaded = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'torushom'), '|')\n"
    code = ("import sys\nfrom pathlib import Path\nimport torushom.cli\n" + loaded +
            "from torushom.formats import parse_facet_list, parse_charmap\n"
            "parse_facet_list(Path(sys.argv[1]).read_text(encoding='utf-8'))\n"
            "parse_charmap(Path(sys.argv[2]).read_text(encoding='utf-8'))\n" + loaded)
    out = _fresh_process(code, str(facets), str(charmap))
    cut = out.index("|")
    # the command line names its two error types, and so compiles no layer
    assert set(out[:cut]) == {"torushom", "torushom.cli", "torushom.errors"}
    assert set(out[cut + 1:-1]) == {"torushom", "torushom.cli", "torushom.errors",
                                    "torushom.formats", "torushom.poset"}


def test_a_job_without_charmap_never_loads_the_torus_layers():
    code = ("import contextlib, io, sys\nfrom torushom.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = main(['all', '--preset', 'cross_polytope_boundary(3)'])\n"
            "print(status, *sorted(sys.modules))")
    status, *modules = _fresh_process(code)
    assert status == "0"
    assert "torushom.job" in modules
    assert "torushom.torusalg" not in modules and "torushom.facering" not in modules


def test_the_lazy_namespace_keeps_every_public_name():
    assert len(torushom.__all__) == len(set(torushom.__all__)) == 43
    for layer, names in torushom._LAYERS.items():
        home = importlib.import_module(f"torushom.{layer}")
        for name in names:
            assert getattr(torushom, name) is getattr(home, name)
    star = {}
    exec("from torushom import *", star)
    assert set(star) - {"__builtins__"} == set(torushom.__all__)
    assert set(torushom.__all__) <= set(dir(torushom))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        torushom.no_such_name
    assert not hasattr(torushom, "CharmapReport")
    for name in ("CharacteristicMap", "ManifoldProfile"):
        assert getattr(formats, name) is getattr(torushom, name)
    assert torusalg.CharacteristicMap is fixtures.CharacteristicMap is formats.CharacteristicMap
    assert specseq.ManifoldProfile is fixtures.ManifoldProfile is formats.ManifoldProfile
    # a submodule not yet loaded is still importable from the package
    out = _fresh_process("from torushom import complexes, torusalg\n"
                         "print(complexes.__name__, torusalg.__name__)")
    assert out == ["torushom.complexes", "torushom.torusalg"]


def test_job_cache_dies_with_poset():
    S = preset("boundary_of_simplex(3)")
    cm = preset_charmap("boundary_of_simplex(3)")
    face_vectors(S, QQ)
    torusalg.keylemma_check(S, cm, QQ)
    refs = [weakref.ref(S), weakref.ref(S.job(QQ)), weakref.ref(S.job(QQ).kit(cm))]
    del S
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


@pytest.mark.parametrize("name", sorted(CHARMAPS))
def test_rational_job_holds_only_ints_and_fractions(name):
    """Over Q every element is an int or a Fraction.  A float would mean
    that two int elements met in a `/` instead of going through
    `field.inv`; a bool, that a comparison was stored as an entry."""
    S = preset(name)
    job = S.job(QQ)
    kit = job.kit(preset_charmap(name))
    matrices, vectors = [], []

    def take(result):
        matrices.extend(result.complex.diff.values())
        for k in result.complex.degrees():
            vectors.extend(result.representatives(k))

    sheaves = [job.structure_sheaf()]
    cosheaves = []
    for q in range(kit.n + 1):
        sheaves += [ideal_sheaf(kit, q), quotient_sheaf(kit, q),
                    structure_tensor_ideal(kit, q), structure_tensor_quotient(kit, q)]
        cosheaves += [pi_cosheaf(kit, q), lambda_mod_pi_cosheaf(kit, q)]
        sheaves.append(kit._quotient_sheaf(q))
        cosheaves.append(kit._pi_cosheaf(q))
    for sheaf in sheaves:
        matrices.extend(sheaf.rest.values())
        for variant in (without_empty_stalk(sheaf), sheaf):
            take(sheaf_cohomology(variant))
    for cosheaf in cosheaves:
        matrices.extend(cosheaf.rest.values())
        take(sheaf_cohomology(cosheaf))
    local = LocalHomologyData(S, QQ)
    for j in range(S.size):
        prof = local.profile(j)
        matrices.extend(prof.complex.diff.values())
        for k in prof.complex.degrees():
            vectors.extend(prof.representatives(k))
    entries = [v for m in matrices for row in m.rows for v in row]
    entries += [v for vec in vectors for v in vec]
    assert entries and {type(v) for v in entries} <= {int, Fraction}
