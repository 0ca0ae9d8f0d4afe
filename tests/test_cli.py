import hashlib
import json

import pytest

from torushom import complexes, job as job_module, poset as poset_module, sheaves, torusalg
from torushom.cli import main, build_parser, run
from torushom.errors import InputError
from torushom.exactlin import IncrementalSpan, Matrix
from torushom.field import QQ
from torushom.fixtures import preset_charmap, origami_annulus_profile
from torushom.formats import (
    write_charmap, write_profile, write_cover_table, parse_cover_table,
    parse_facet_list, parse_charmap, parse_profile,
)
from torushom.poset import preset
from torushom.sheaves import LocalHomologyData
from torushom.torusalg import CharacteristicMap


@pytest.fixture
def files(tmp_path):
    t7 = tmp_path / "t7.lam"
    t7.write_text(write_charmap(preset_charmap("torus_7")))
    d2 = tmp_path / "d2.lam"
    d2.write_text(write_charmap(preset_charmap("digon_cycle(2)")))
    prof = tmp_path / "annulus.json"
    prof.write_text(write_profile(origami_annulus_profile()))
    return {"t7": str(t7), "d2": str(d2), "annulus": str(prof), "dir": tmp_path}


def run_cli(argv):
    args = build_parser().parse_args(argv)
    return run(args)


def test_validate_preset(capsys):
    status = main(["validate", "--preset", "torus_7"])
    out = capsys.readouterr().out
    assert status == 0
    report = json.loads(out)
    v = report["results"]["validate"]
    assert v["pure"] and v["dim"] == 2
    assert v["classification"]["Q"]["buchsbaum"]
    assert v["homology_manifold"]


def test_vectors_simplex(capsys):
    status = main(["vectors", "--preset", "boundary_of_simplex(3)"])
    report = json.loads(capsys.readouterr().out)
    assert status == 0
    assert report["results"]["vectors"]["vectors"]["h"] == [1, 1, 1, 1]


def test_specseq_torus7(files, capsys):
    status = main(["specseq", "--preset", "torus_7", "--charmap", files["t7"],
                   "--field", "Q"])
    report = json.loads(capsys.readouterr().out)
    assert status == 0
    pages = report["results"]["specseq"]["pages"]
    assert pages[2]["border"] == [1, 4, 4, 1]
    assert report["results"]["specseq"]["sheaf_crosscheck"]["passed"]


def test_verify_and_facering_torus7(files, capsys):
    status = main(["verify", "--preset", "torus_7", "--charmap", files["t7"]])
    report = json.loads(capsys.readouterr().out)
    assert status == 0
    assert report["results"]["keylemma"]["passed"]
    assert report["results"]["duality"]["passed"]
    assert report["results"]["les_duality"]["passed"]

    status = main(["facering", "--preset", "torus_7", "--charmap", files["t7"]])
    report = json.loads(capsys.readouterr().out)
    assert status == 0
    fr = report["results"]["facering"]
    assert fr["full_quotient"] == {"0": 1, "1": 4, "2": 4, "3": 1}
    assert fr["kernel_generators"]["count"] == 6


def test_checks_selection(files, capsys):
    status = main(["verify", "--preset", "boundary_of_simplex(2)", "--charmap",
                   _write_simplex2_charmap(files["dir"]), "--checks", "keylemma"])
    report = json.loads(capsys.readouterr().out)
    assert status == 0
    assert "keylemma" in report["results"]
    assert "duality" not in report["results"]


def test_exit_2_on_an_unknown_check_name(files, capsys):
    status = main(["verify", "--preset", "torus_7", "--charmap", files["t7"],
                   "--checks", "keylema"])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err == ("error: unknown --checks keylema; known: constant, structure, "
                            "keylemma, duality, les_duality, theorems, crosscheck\n")


@pytest.mark.parametrize("command, checks, own", [
    ("verify", "theorems", "keylemma, duality, les_duality"),
    ("sheaf", "keylemma,crosscheck", "constant, structure"),
    ("specseq", ",", "theorems, crosscheck"),
])
def test_exit_2_when_the_checks_leave_the_command_nothing_to_run(files, capsys, command,
                                                                 checks, own):
    status = main([command, "--preset", "torus_7", "--charmap", files["t7"],
                   "--checks", checks])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err == (f"error: --checks {checks} selects no check of {command}; "
                            f"its checks: {own}\n")


@pytest.mark.parametrize("preset_name, extra, reason", [
    ("torus_7", [], "no --charmap given"),
    ("digon_cycle(2)", ["--charmap", "d2", "--profile", "annulus"],
     "the profile is a user profile, not the cone profile"),
    ("torus_7", ["--charmap", "t7n4"], "torus rank 4 is not the poset rank 3"),
], ids=["no-charmap", "user-profile", "torus-rank"])
def test_exit_2_when_the_only_selected_check_cannot_run(files, capsys, preset_name, extra,
                                                        reason):
    # `specseq --checks crosscheck` would otherwise run no check and pass;
    # with the theorems also selected the cross-check is left out as before
    t7n4 = files["dir"] / "t7n4.lam"
    padded = {v: r + (0,) for v, r in preset_charmap("torus_7").rows.items()}
    t7n4.write_text(write_charmap(CharacteristicMap(4, padded)))
    files = dict(files, t7n4=str(t7n4))
    argv = ["specseq", "--preset", preset_name] + [files.get(a, a) for a in extra]
    assert main(argv + ["--checks", "crosscheck"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --checks crosscheck cannot run: {reason}\n"
    assert main(argv + ["--checks", "theorems,crosscheck"]) == 0
    assert "sheaf_crosscheck" not in json.loads(capsys.readouterr().out)["results"]["specseq"]


def _write_simplex2_charmap(tmpdir):
    path = tmpdir / "s2.lam"
    path.write_text(write_charmap(preset_charmap("boundary_of_simplex(2)")))
    return str(path)


def test_all_annulus(files, capsys):
    status = main(["all", "--preset", "digon_cycle(2)", "--charmap", files["d2"],
                   "--profile", files["annulus"]])
    report = json.loads(capsys.readouterr().out)
    assert status == 0 and report["ok"]
    assert report["results"]["specseq"]["bigraded"]["totals"] == [1, 1, 4, 1, 1]


def test_an_all_job_checks_the_poset_axioms_once(files, capsys, monkeypatch):
    # the builder's refusal and the report's `validate` read the one pass
    # kept on the immutable poset
    passes = []
    diagnostics = poset_module.PosetDiagnostics

    def counting(*fields):
        passes.append(fields[0])
        return diagnostics(*fields)

    monkeypatch.setattr(poset_module, "PosetDiagnostics", counting)
    assert main(["all", "--preset", "torus_7", "--charmap", files["t7"]]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["validate"]["ok"]
    assert passes == [True]


def test_all_without_charmap_skips(files, capsys):
    status = main(["all", "--preset", "boundary_of_simplex(2)"])
    report = json.loads(capsys.readouterr().out)
    assert status == 0
    assert "skipped" in report["results"]
    assert "keylemma" not in report["results"]


def test_deterministic_output(files, capsys):
    argv = ["specseq", "--preset", "torus_7", "--charmap", files["t7"]]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert hashlib.sha256(first.encode()).hexdigest() == \
        hashlib.sha256(second.encode()).hexdigest()


def test_report_json_roundtrip(files, capsys):
    # the report is pure JSON: parsing and re-serializing is the identity
    main(["all", "--preset", "torus_7", "--charmap", files["t7"]])
    out = capsys.readouterr().out
    report = json.loads(out)
    again = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert again == out


def test_markdown_output(files, capsys):
    status = main(["vectors", "--preset", "torus_7", "--out", "md"])
    out = capsys.readouterr().out
    assert status == 0
    assert out.startswith("# torushom vectors")


# Unusable input, each case (argv, file contents): every one exits 2 with
# one stderr line and no report.  `{file}` in an argv names the file.
BAD_INPUT = {
    "unknown preset": (["validate", "--preset", "no_such_preset"], None),
    "missing file": (["validate", "--poset", "{file}.missing"], None),
    "malformed facet list": (["validate", "--facets", "{file}"], "facets v1\n1 x\n"),
    "facet list not UTF-8": (["validate", "--facets", "{file}"], b"facets v1\n\xff\xfe\n"),
    "malformed cover table": (["validate", "--poset", "{file}"],
                              "simplicial-poset v1\n0 0 - -\n1 1 1\n"),
    "malformed charmap": (["charmap", "--preset", "torus_7", "--charmap", "{file}"],
                          "not a charmap\n"),
    "profile 5": (["specseq", "--preset", "torus_7", "--profile", "{file}"], "5"),
    "profile list": (["specseq", "--preset", "torus_7", "--profile", "{file}"],
                     '["n", "bQ", "bQrel", "rank_delta"]'),
    "profile missing key": (["specseq", "--preset", "torus_7", "--profile", "{file}"],
                            '{"n": 3, "bQ": [1, 0, 0, 0]}'),
    "profile integer past the digit limit": (
        ["specseq", "--preset", "torus_7", "--profile", "{file}"], "1" * 5000),
    "profile infinite": (["specseq", "--preset", "torus_7", "--profile", "{file}"],
                         '{"n": Infinity, "bQ": [], "bQrel": [], "rank_delta": []}'),
    "field Z": (["validate", "--preset", "torus_7", "--field", "Z"], None),
    "field Fp:abc": (["validate", "--preset", "torus_7", "--field", "Fp:abc"], None),
    "field Fp:4": (["validate", "--preset", "torus_7", "--field", "Fp:4"], None),
    "primes 2,x": (["validate", "--preset", "torus_7", "--primes", "2,x"], None),
    # options are parsed before any section runs, also by a command that
    # does not read them
    "primes 2,x, unread": (["specseq", "--preset", "torus_7", "--primes", "2,x"], None),
    "primes 4, unread": (["validate", "--preset", "torus_7", "--field", "Fp:3",
                          "--primes", "4"], None),
    "missing profile, unread": (["validate", "--preset", "torus_7",
                                 "--profile", "/nonexistent.json"], None),
    "profile 5, unread": (["verify", "--preset", "torus_7", "--charmap", "{t7}",
                           "--profile", "{file}"], "5"),
    "verify without charmap": (["verify", "--preset", "torus_7"], None),
    "unknown check": (["sheaf", "--preset", "torus_7", "--checks", "constant,nope"], None),
    "not Buchsbaum": (["specseq", "--facets", "{file}"], "facets v1\n1 2 3\n1 4 5\n"),
}


def test_exit_2_on_bad_input(capsys, tmp_path, files):
    for case, (argv, text) in BAD_INPUT.items():
        path = tmp_path / "input"
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text)
        assert main([a.format(file=path, t7=files["t7"]) for a in argv]) == 2, case
        captured = capsys.readouterr()
        assert captured.out == "", case
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, \
            (case, captured.err)
        if case in ("field Fp:abc", "primes 2,x", "primes 2,x, unread"):
            assert argv[-2] in captured.err and "invalid literal" not in captured.err


@pytest.mark.parametrize("command", ["facering", "verify", "all"])
def test_exit_2_on_a_map_invalid_over_the_field(files, capsys, command):
    # the torus_7 map is dependent over F2 on one triangle; every command
    # that reads the map's sheaf kit refuses it there, with the kit's line
    assert main([command, "--preset", "torus_7", "--charmap", files["t7"],
                 "--field", "Fp:2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: characteristic map invalid over F2 on faces [32]\n"


def test_exit_2_on_an_argument_to_a_preset_without_one(capsys):
    assert main(["all", "--preset", "torus_7(3)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: preset torus_7 takes no argument, got 'torus_7(3)'\n"


def test_exit_2_on_a_prime_field_beyond_64_bits(capsys):
    assert main(["all", "--preset", "torus_7", "--field", f"Fp:{2**64 + 13}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {2**64 + 13} is too large: prime fields need "
                            "p < 2^64\n")


def test_cone_tag_must_name_the_cone_profile(files, tmp_path, capsys):
    # the annulus numbers tagged "cone" would turn on the cone-only checks,
    # which then fail on numbers that are not the cone's
    prof = tmp_path / "tagged.json"
    prof.write_text(json.dumps(dict(origami_annulus_profile().as_dict(), source="cone")))
    assert main(["specseq", "--preset", "digon_cycle(2)", "--profile", str(prof)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not the cone profile" in captured.err
    # the cone profile itself, written and read back, is accepted
    cone = tmp_path / "cone.json"
    cone.write_text(write_profile(preset("digon_cycle(2)").job(QQ).cone_profile))
    reports = []
    for argv in (["--profile", str(cone)], []):
        assert main(["specseq", "--preset", "digon_cycle(2)", "--charmap", files["d2"]]
                    + argv) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_exit_2_on_invalid_profile(files, tmp_path, capsys):
    prof = tmp_path / "bad_profile.json"
    data = origami_annulus_profile().as_dict()
    data["rank_delta"] = [1, 2]     # breaks exactness
    prof.write_text(json.dumps(data))
    assert main(["specseq", "--preset", "digon_cycle(2)", "--profile", str(prof)]) == 2


def test_specseq_refuses_non_buchsbaum_bowtie(tmp_path, capsys):
    # two triangles sharing a vertex: the link of vertex 1 is two disjoint
    # edges, so the closed-form pages do not apply
    path = tmp_path / "bowtie.txt"
    path.write_text("facets v1\n1 2 3\n1 4 5\n")
    for command in ("specseq", "all"):
        assert main([command, "--facets", str(path)]) == 2
        err = capsys.readouterr().err
        assert "Buchsbaum" in err and "over Q" in err and "[[1, 0, 1]]" in err
    assert main(["validate", "--facets", str(path)]) == 0


def test_exit_2_on_oversized_input(tmp_path, capsys):
    assert main(["validate", "--preset", "boundary_of_simplex(30)"]) == 2
    assert "more than 1000 elements" in capsys.readouterr().err
    path = tmp_path / "big.txt"
    path.write_text("facets v1\n" + " ".join(str(v) for v in range(1, 41)) + "\n")
    assert main(["validate", "--facets", str(path)]) == 2
    assert "1000" in capsys.readouterr().err


def test_exit_1_on_failed_math_check(tmp_path, capsys):
    # a charmap valid over Q on every edge of the triangle boundary cannot
    # exist with a zero row; use a rank-deficient map to force failure
    path = tmp_path / "bad_rows.lam"
    path.write_text("charmap v1 n=2\n1: 1 0\n2: 1 0\n3: 1 1\n")
    status = main(["charmap", "--preset", "boundary_of_simplex(2)",
                   "--charmap", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert status == 1
    assert not report["results"]["charmap"]["ok_field"]


def test_cover_table_roundtrip():
    S = preset("digon_cycle(2)")
    text = write_cover_table(S)
    S2 = parse_cover_table(text)
    assert S2.ranks == S.ranks
    assert S2.vertex_sets == S.vertex_sets
    assert S2.covers == S.covers


def test_facet_list_parsing():
    S = parse_facet_list("facets v1\n1 2\n1 3\n2 3\n")
    from torushom.poset import face_counts
    assert face_counts(S) == (1, 3, 3)
    with pytest.raises(InputError):
        parse_facet_list("1 2\n")
    with pytest.raises(InputError):
        parse_facet_list("facets v1\n1 x\n")


def test_charmap_parsing_errors():
    with pytest.raises(InputError):
        parse_charmap("charmap v1\n1: 1 0\n")
    with pytest.raises(InputError):
        parse_charmap("charmap v1 n=2\n1: 1\n")
    with pytest.raises(InputError):
        parse_charmap("charmap v1 n=2\n1: 1 0\n1: 0 1\n")
    cm = parse_charmap("charmap v1 n=2\n# comment\n1: 1 0\n2: 0 1\n")
    assert cm.rows[2] == (0, 1)


def test_profile_parsing_errors():
    with pytest.raises(InputError):
        parse_profile("{not json")
    with pytest.raises(InputError):
        parse_profile(json.dumps({"n": 2, "bQ": [1, 0, 0]}))
    P = parse_profile(write_profile(origami_annulus_profile()))
    assert P == origami_annulus_profile()
    with pytest.raises(InputError, match="source must be 'cone' or 'user'"):
        parse_profile(json.dumps(dict(P.as_dict(), source="orbifold")))


def test_exit_3_when_d_squared_is_not_zero(monkeypatch, capsys):
    # every incidence number +1: the cellular boundary of a triangle no
    # longer squares to zero, which is a fault of the computation
    monkeypatch.setattr(complexes, "incidence_number", lambda S, j, i: 1)
    assert main(["validate", "--preset", "boundary_of_simplex(2)"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invariant violated: d^2 != 0 at degree ")
    assert captured.err.count("\n") == 1


def test_exit_3_when_a_sheaf_complex_drops_an_incidence_sign(monkeypatch, capsys):
    # every incidence number of the sheaf (co)chain complexes +1: the
    # cochains of the structure sheaf of a 2-sphere no longer square to zero,
    # while the cellular complexes keep their signs
    monkeypatch.setattr(sheaves, "incidence_number", lambda S, j, i: 1)
    assert main(["sheaf", "--preset", "boundary_of_simplex(3)"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    # the structure sheaf's complex starts at the empty face, in degree -1
    assert captured.err == "error: invariant violated: d^2 != 0 at degree -1\n"


@pytest.mark.parametrize("cover", ["empty-vertex", "vertex-edge"])
@pytest.mark.parametrize("command", ["validate", "vectors", "sheaf", "all"])
def test_exit_3_when_a_sheaf_is_not_functorial(monkeypatch, capsys, command, cover):
    # double one restriction of the structure sheaf, from the empty face to
    # a vertex or from a vertex to an edge: the two paths through a diamond
    # at the empty face then disagree (the vertex < edge map also breaks the
    # diamonds up to the triangles, but d∘d is read from degree -1 up).  The
    # job certifies the sheaf by the d∘d check of its untruncated complex
    # before any reader gets it, so a command that reads only its constancy
    # refuses it too
    S = preset("boundary_of_simplex(3)")
    vertex = S.elements_of_rank(1)[0]
    broken = (0, vertex) if cover == "empty-vertex" else (vertex, S.covered_by[vertex][0])
    restriction = LocalHomologyData.restriction
    doubled = []

    def doubling(data, j1, j2, i):
        m = restriction(data, j1, j2, i)
        if (j1, j2) == broken:
            doubled.append(broken)
            m = Matrix(m.field, [[2 * v for v in row] for row in m.rows], m.ncols)
        return m

    monkeypatch.setattr(LocalHomologyData, "restriction", doubling)
    assert main([command, "--preset", "boundary_of_simplex(3)"]) == 3
    captured = capsys.readouterr()
    assert doubled == [broken]
    assert captured.out == ""
    assert captured.err == "error: invariant violated: d^2 != 0 at degree -1\n"


def test_exit_3_when_a_kit_invariant_fails(monkeypatch, capsys, files):
    # the charmap is valid, so stalk dimensions C(n - |I|, q) that do not
    # fit the monomial bases the kit's cover maps are written in are a fault
    # of the computation, not of the input
    binom = torusalg.binom
    monkeypatch.setattr(torusalg, "binom", lambda n, k: binom(n, k) + 1)
    assert main(["verify", "--preset", "torus_7", "--charmap", files["t7"]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invariant violated: sheaf map ")
    assert captured.err.endswith(" does not fit its stalks\n")
    assert captured.err.count("\n") == 1


def test_exit_3_when_an_internal_value_check_fails(monkeypatch, capsys):
    # a span that finds no coordinates makes a local homology restriction
    # meet a vector that is no cycle: a fault of the computation, reported
    # as an invariant violation, not as unusable input
    monkeypatch.setattr(IncrementalSpan, "coords", lambda span, vec: None)
    assert main(["sheaf", "--preset", "boundary_of_simplex(3)"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invariant violated: vector is not a cycle of this complex\n"


def test_exit_3_on_an_unexpected_exception(monkeypatch, capsys):
    # only an `InputError` means unusable input: a stray `ValueError` from
    # inside a layer is a fault of the computation like any other
    for error in (RuntimeError, ValueError):
        def crash(job):
            raise error("boom\n  at the face vectors")

        monkeypatch.setattr(job_module, "face_vectors_of", crash)
        assert main(["all", "--preset", "boundary_of_simplex(2)"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal error: {error.__name__}: boom at the face vectors\n"


def _first_cover(sheaf, rank):
    """The first cover map of `sheaf` whose source has the given rank."""
    S = sheaf.poset
    return next(key for key in sorted(sheaf.rest) if S.ranks[key[0]] == rank)


def _changed_map(rank):
    def fault(sheaf):
        key = _first_cover(sheaf, rank)
        m = sheaf.rest[key]
        rows = [list(r) for r in m.rows]
        rows[0][0] = m.field(rows[0][0] + 1)
        sheaf.rest[key] = Matrix(m.field, rows, m.ncols)
    return fault


def _missing_map(rank):
    def fault(sheaf):
        del sheaf.rest[_first_cover(sheaf, rank)]
    return fault


def _taller_map(rank):
    def fault(sheaf):
        key = _first_cover(sheaf, rank)
        m = sheaf.rest[key]
        sheaf.rest[key] = Matrix(m.field, m.rows + [[m.field.zero] * m.ncols], m.ncols)
    return fault


# The kit's degree-1 quotient has zero stalks at the triangles, so a changed
# vertex -> edge class only breaks the squares at the empty face, whose maps
# into the vertices are onto.  The top principal ideals are one-dimensional
# at every face and their cover maps are units, so a changed edge -> vertex
# map, or a missing triangle -> edge map, breaks the squares through the
# edge.  A map from the empty face with one row too many does not fit its
# stalks.
@pytest.mark.parametrize("builder, name, fault", [
    ("_pi_cosheaf", "pi^(3)", _changed_map(2)),
    ("_quotient_sheaf", "lambda/ideal^(1)", _changed_map(1)),
    ("_pi_cosheaf", "pi^(3)", _missing_map(3)),
    ("_quotient_sheaf", "lambda/ideal^(1)", _taller_map(0)),
], ids=["wrong-coords-column", "wrong-unit-class", "missing-cover-map", "wrongly-shaped-map"])
@pytest.mark.parametrize("preset_name, field", [
    ("torus_7", "Q"), ("cross_polytope_boundary(3)", "Fp:3"),
], ids=["torus_7-Q", "cross3-Fp3"])
def test_exit_3_when_a_kit_sheaf_is_faulty(monkeypatch, capsys, tmp_path, builder, name,
                                           fault, preset_name, field):
    # one fault in one of the kit's own (co)sheaves, made as the kit's
    # builder returns it, so that every check the kit runs on it sees the
    # fault; the job must refuse it
    build = getattr(torusalg.TorusSheafKit, builder)
    faulted = []

    def faulty(kit, q):
        sheaf = build(kit, q)
        if sheaf.name == name:
            fault(sheaf)
            faulted.append(sheaf.name)
        return sheaf

    monkeypatch.setattr(torusalg.TorusSheafKit, builder, faulty)
    lam = tmp_path / "map.lam"
    lam.write_text(write_charmap(preset_charmap(preset_name)))
    status = main(["verify", "--preset", preset_name, "--charmap", str(lam), "--field", field])
    captured = capsys.readouterr()
    assert faulted == [name]
    assert status == 3 and captured.out == ""
    assert captured.err.startswith("error: invariant violated: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("field", ["Q", "Fp:3"])
def test_exit_3_when_a_projected_representative_is_not_a_cycle(monkeypatch, capsys, files,
                                                               field):
    # in degree 0 the projection Λ^0 -> quotient is the identity at every
    # face; doubling it at one edge carries a representative of the torus's
    # H^1, which is nonzero there, to a cochain that is no cocycle
    S = preset("torus_7")
    edge = S.elements_of_rank(2)[0]
    projections = torusalg.TorusSheafKit.projections
    faulted = []

    def faulty(kit, sheaf):
        images = projections(kit, sheaf)
        if sheaf.name == "lambda/ideal^(0)":
            faulted.append(edge)
            m = images[edge]
            images[edge] = Matrix(m.field, [[2 * x for x in row] for row in m.rows], m.ncols)
        return images

    monkeypatch.setattr(torusalg.TorusSheafKit, "projections", faulty)
    status = main(["verify", "--preset", "torus_7", "--charmap", files["t7"], "--field", field])
    captured = capsys.readouterr()
    assert faulted == [edge]
    assert status == 3 and captured.out == ""
    assert captured.err == "error: invariant violated: vector is not a cycle of this complex\n"
