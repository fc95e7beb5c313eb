import hashlib
import json
import random
from fractions import Fraction

import pytest

from vclab.cli import MAX_VCDIM_ORDER, main
from vclab.cantor import FatCantorSet
from vclab.constructible import parse_set
from vclab.witness import ShatterWitness, verify_witness


def run(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out


def test_usage_error_exits_2(capsys):
    # "selftest" is a retired command, and so an unknown one
    for argv in ([], ["witness", "--bogus-flag"], ["selftest"], ["witness", "--depth", "abc"],
                 ["witness"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)


def test_witness_roundtrip_through_cli(tmp_path):
    code, out = run(tmp_path, "w.json", ["witness", "--depth", "3", "--seed", "7"])
    assert code == 0
    witness = ShatterWitness.loads(out.read_text())
    assert witness.depth == 3
    assert verify_witness(witness, FatCantorSet().boundary_pair()).ok


def test_witness_budget_exhaustion_exits_3(tmp_path, capsys):
    code = main(["witness", "--depth", "6", "--stage-budget", "10",
                 "--out", str(tmp_path / "w.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert "depth 2 (asked for 6)" in err and err.count("\n") == 1
    partial = ShatterWitness.loads((tmp_path / "w.json").read_text())
    assert 0 < partial.depth < 6
    assert verify_witness(partial, FatCantorSet()).ok


# A seeded base holding 45% of the group at the order cap: nearly every pair
# and triple through 0 is shattered, so the search spends its budget on the
# 3-point tuples.
DENSE_AT_CAP = "list:" + ",".join(
    str(v) for v in sorted(random.Random("dense").sample(range(MAX_VCDIM_ORDER), MAX_VCDIM_ORDER * 9 // 20))
)


def test_vcdim_budget_exhaustion_writes_partial_report(tmp_path, capsys):
    code = main(["vcdim", "--group", f"cyclic:{MAX_VCDIM_ORDER}", "--set", DENSE_AT_CAP,
                 "--out", str(tmp_path / "v.json")])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "VC dimension >= 2" in captured.err and captured.err.count("\n") == 1
    payload = json.loads((tmp_path / "v.json").read_text())
    assert payload["vc_dimension_lower_bound"] == 2
    assert "vc_dimension" not in payload
    report = payload["shatter_report"]
    assert report["shattered"] and len(report["points"]) == 2
    # each recorded translator really cuts out its pattern on the points
    base = set(payload["base_set"])
    for pattern, g in report["witness_translators"].items():
        for bit, p in zip(pattern[::-1], report["points"]):
            assert ((p - g) % MAX_VCDIM_ORDER in base) == (bit == "1")


# Stage 3 of the fat Cantor set at scale 4/5: the translate search certifies
# three points and then spends its budget on the 4-point candidates.
CANTOR_STAGE_3 = ("[0,13/160] u [3/32,7/40] u [9/40,49/160] u [51/160,2/5] u "
                  "[3/5,109/160] u [111/160,31/40] u [33/40,29/32] u [147/160,1]")


def test_translate_vcdim_budget_exhaustion_writes_partial_report(tmp_path, capsys):
    code = main(["translate-vcdim", "--set", CANTOR_STAGE_3, "--out", str(tmp_path / "t.json")])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "certified lower bound 3" in captured.err and captured.err.count("\n") == 1
    payload = json.loads((tmp_path / "t.json").read_text())
    assert payload["lower_bound"] == 3
    assert payload["upper_bound_status"].startswith("search budget of 100000 tries spent at size 4")
    assert len(payload["pattern_translators"]) == 8
    # each recorded translator really cuts out its pattern on the points
    x = parse_set(CANTOR_STAGE_3)
    points = [Fraction(p) for p in payload["points"]]
    for pattern, g in payload["pattern_translators"].items():
        shifted = x.translate(Fraction(g))
        for bit, p in zip(pattern[::-1], points):
            assert shifted.contains(p) == (bit == "1")


@pytest.mark.parametrize(
    "argv, code, sha256",
    [
        (["--set", "[0,1/4] u {1/2}"], 0,
         "ed63908d19bbb7880dfbe06c49d491762bd82fd9427aa2ec4ad59fee9bce7589"),
        (["--set", "[0,1/4) u (1/4,1/2]"], 0,
         "004dbae649ace9557e51bd8253ebe4eef1b8388b294f79be46abe4c1ee6ae8bf"),
        (["--set", "(0,1/4) u {3/8} u [1/2,3/4]"], 0,
         "8fe62d3080f967b27d7f8ba5c48d4fa2ee1f88bad7e1faebfaa2221c62618098"),
        (["--set", "{0} u {1/2}"], 0,
         "21ea45a3d28f331657bafd0d6ee96fcf208b0cb11d181ef8dba8749a2271f5ce"),
        (["--set", "[0,1/4] u {1/2}", "--window=-1/4,1/8"], 0,
         "c33eaadfb659b177484ac586007981c20c17836ff4425117547795cc4714606b"),
        (["--set", CANTOR_STAGE_3], 3,
         "7289439d6475bdbcd133b95ec5a411853397594293e5ef3e8ada27ac6c9df6dc"),
    ],
    ids=["interval-and-point", "deleted-point", "open-point-closed", "two-points",
         "clipping-window", "partial-cantor-stage-3"],
)
def test_translate_vcdim_artifact_bytes_are_pinned(tmp_path, argv, code, sha256):
    # Digests recorded from earlier commits: a change to the search or to
    # how its translators are read off that moves any byte shows here.
    out = tmp_path / "translate_vcdim.json"
    assert main(["translate-vcdim", *argv, "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize(
    "group, base, sha256",
    [
        ("cyclic:12", "arc:3", "0778edfb16e944adb42d4e0372dde36b5d31115267b1acbeb859ef9ed022cbfb"),
        ("cyclic:23", "list:2,7,11,19", "4215bf9612b0dbfeda0d2b856ab64597489362fcb77f7dcb97cc86a59737fcd1"),
        ("cyclic:17", "list:0,3,4", "d683fd4cdb7339465a0eeab6c5fe73a2375042c6acfcb1daaacbf91689c0766a"),
        ("cyclic:28", "list:1,5,6,13", "4e30083202d8f7c433c0b7c213b949fe82d2c6c681c007cf0b1fbdbeb2296808"),
        ("cyclic:12", "list:0,1,4,5,8,9", "7160548ef97e24319c73991df6a00f13eb2e61baaf73ebccf8a70cfe6e79bda0"),
        ("cyclic:7", "arc:7", "08fa286508c8083a51d5d3ea3557e8e22d99438b43d45186ea1c9f9d9494b97f"),
        ("cyclic:10", "list:3", "a15ad9f4115ea045ef2ced681247510ec6767d0d7dcd8bdc898b7e9587f88f2b"),
        ("cyclic:30", "list:0,2,3,7,11,12,18", "eb044fc1b82b157ed185e32157056c2a594fb8421699d5bb2d68b2a8b8f2001f"),
    ],
    ids=["arc-3", "families-23", "families-17", "families-28", "period-4", "full-group",
         "singleton", "dimension-3"],
)
def test_vcdim_artifact_bytes_are_pinned(tmp_path, group, base, sha256):
    # Digests recorded from the generic point-by-point search: the
    # translation-symmetric search must report the same tuples and rows.
    out = tmp_path / "vcdim.json"
    assert main(["vcdim", "--group", group, "--set", base, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (["steinhaus", "--stage", "9", "--removed-scale", "23/37"],
         "47e2540bdb2a1dcc0a726734ac36dd8f7adb10d6224a2c75ef188e5400fbbd59"),
        (["steinhaus", "--stage", "8"],
         "df66ae8417a3727b55c848f15cda5fa4e1602d6300b09c7e4badb6557d72d605"),
        (["border-sweep", "--sets", "4", "--seed", "1"],
         "a84b10126fb97d8992f6f0e0eac7b05ac2a25761a55eb762ff373f6c70ef6af9"),
        (["theorem5-report", "--set", "[0,1/2) u (3/4,1] u {2}"],
         "b088539266ca00b8a373f5578de0c453f1d692abccc5e63bbaaf04a680acc673"),
    ],
    ids=["steinhaus-9-scale-23-37", "steinhaus-8", "border-sweep", "theorem5-report"],
)
def test_set_algebra_artifact_bytes_are_pinned(tmp_path, argv, sha256):
    # Digests recorded from earlier commits: these commands run the boolean
    # sweep, closure, interior, r-neighborhoods and hull of vclab.constructible.
    out = tmp_path / "artifact"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_vcdim_arc_at_former_cap_finishes(tmp_path, capsys):
    code, _ = run(tmp_path, "v.json", ["vcdim", "--group", "cyclic:2236", "--set", "arc:3"])
    assert code == 0
    assert capsys.readouterr().out == "2\n"


def test_vcdim_dual_budget_keeps_primal_result(tmp_path, capsys):
    # The primal search finishes and the dual one spends its budget on
    # 3-row tuples: the artifact keeps the VC dimension and its report, and
    # adds the dual lower bound with the translators of its partial rows.
    code, out = run(tmp_path, "v.json", [
        "vcdim", "--group", "cyclic:3531", "--set", "list:197,237,296,385,617,1497,1617,2078,2194,2387,2666,3363",
    ])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == "2\n"
    assert "(dual VC dimension >= 2)" in captured.err and captured.err.count("\n") == 1
    payload = json.loads(out.read_text())
    assert payload["vc_dimension"] == 2 and payload["shatter_report"]["shattered"]
    assert payload["dual_vc_dimension_lower_bound"] == 2
    assert "dual_vc_dimension" not in payload
    # the translates by the recorded translators cut all four Venn cells
    base = set(payload["base_set"])
    translators = payload["dual_witness_translators"]
    assert len(translators) == 2
    assert len({tuple((v - g) % 3531 in base for g in translators) for v in range(3531)}) == 4


def test_vcdim_prints_dimension(tmp_path, capsys):
    code, out = run(tmp_path, "v.json", ["vcdim", "--group", "cyclic:12", "--set", "arc:3"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2"
    payload = json.loads(out.read_text())
    assert payload["vc_dimension"] == 2
    assert payload["shatter_report"]["shattered"]


def test_eps_approx_no_passing_n_exits_3(tmp_path):
    code = main(
        ["eps-approx", "--group", "cyclic:100", "--arc", "30", "--epsilon", "1/50",
         "--trials", "5", "--schedule", "5,10", "--out", str(tmp_path / "e.csv")]
    )
    assert code == 3


def test_eps_approx_csv_columns(tmp_path):
    code, out = run(
        tmp_path,
        "e.csv",
        ["eps-approx", "--group", "cyclic:200", "--arc", "60", "--epsilon", "1/8",
         "--trials", "10", "--schedule", "100,400"],
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "N,trials,successes,min_sup_deviation,max_sup_deviation"


def test_steinhaus_table(tmp_path):
    code, out = run(tmp_path, "s.csv", ["steinhaus", "--stage", "6"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 7  # header + six shifts
    assert all(line.endswith("True") for line in lines[1:])


def test_counterexample_json(tmp_path):
    code, out = run(
        tmp_path,
        "c.json",
        ["counterexample", "--intervals", "3", "--points-per", "3", "--triples", "50"],
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["difference_injective"]
    assert payload["pair_uniqueness_ok"]
    assert not payload["full_shatter_found"]


def test_theorem5_report_cli(tmp_path):
    code, out = run(
        tmp_path, "t.json", ["theorem5-report", "--set", "[0,1/2] u (3/4,1)"]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload == {
        "hypothesis_set": True,
        "hypothesis_complement": True,
        "border_measure": "0",
        "identity_holds": True,
        "consistent": True,
    }


@pytest.mark.parametrize(
    "window", [["--window", "2,3"], ["--window", "125,250"], ["--window=-3,-2"]],
    ids=["right", "far-right", "left"],
)
def test_theorem5_report_window_apart_from_the_set(tmp_path, capsys, window):
    # The ambient interval pads the union of the window and the set's hull,
    # so a window that misses the set cannot clip its border.
    code, out = run(tmp_path, "t.json", ["theorem5-report", "--set", "[0,1]", *window])
    assert code == 0
    assert "consistent: True" in capsys.readouterr().out
    assert json.loads(out.read_text())["identity_holds"]


def test_translate_vcdim_cli(tmp_path):
    code, out = run(
        tmp_path, "tv.json", ["translate-vcdim", "--set", "[0,1/4]", "--window", "0,1"]
    )
    assert code == 0
    assert json.loads(out.read_text())["lower_bound"] == 2


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["steinhaus", "--stage", "4"], "--shifts", "-1/100,1/20"),
        (["border-sweep", "--sets", "2", "--r-exponents", "4:6"], "--window", "-1,1"),
        (["translate-vcdim", "--set", "[0,1/4]"], "--window", "-1,1"),
    ],
    ids=["steinhaus", "border-sweep", "translate-vcdim"],
)
def test_negative_flag_value_parses_like_equals_form(tmp_path, argv, flag, value):
    code1, spaced = run(tmp_path, "spaced.out", argv + [flag, value])
    code2, joined = run(tmp_path, "joined.out", argv + [f"{flag}={value}"])
    assert code1 == code2 == 0
    assert spaced.read_bytes() == joined.read_bytes()


def test_config_mirrors_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"depth": 2, "seed": 11}))
    out = tmp_path / "w.json"
    # --depth is required by the parser; config overrides the default seed
    code = main(["witness", "--depth", "2", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    direct = tmp_path / "w2.json"
    assert main(["witness", "--depth", "2", "--seed", "11", "--out", str(direct)]) == 0
    assert out.read_bytes() == direct.read_bytes()


EPS_ARGS = ["eps-approx", "--group", "cyclic:100", "--arc", "30", "--epsilon", "1/5",
            "--schedule", "50,100"]


def test_config_values_pass_through_flag_types(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": "5", "seed": 9}))
    # a string "5" becomes the int --trials takes; --seed on the command line wins
    code, out = run(tmp_path, "c.csv", EPS_ARGS + ["--seed", "3", "--config", str(cfg)])
    assert code == 0
    _, direct = run(tmp_path, "d.csv", EPS_ARGS + ["--trials", "5", "--seed", "3"])
    assert out.read_bytes() == direct.read_bytes()


@pytest.mark.parametrize(
    "config",
    [[{"trials": 5}], {"trails": 5}, {"config": "other.json"}, {"jobs": 2}],
    ids=["list", "unknown", "nested", "jobs"],
)
def test_config_rejects_bad_shape_with_exit_2(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(EPS_ARGS + ["--config", str(cfg), "--out", str(tmp_path / "e.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config") and err.count("\n") == 1
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [["vcdim", "--group", "product:4x3", "--set", "arc:2"], ["eps-approx", "--group", "product:2x3"]],
    ids=lambda a: a[0],
)
def test_product_group_with_integer_base_set_exits_2(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: group spec 'product:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["border-sweep", "--window", "0"], "window '0' must be two rationals"),
        (["eps-approx", "--group", "reals:0,1"], "group spec 'reals:0,1' must be cyclic:N"),
        (["steinhaus", "--stage", "-1"], "--stage must be >= 0, got -1"),
        (["border-sweep", "--window", "1,0"], "window '1,0' needs lo < hi"),
        (["border-sweep", "--window", "0,0"], "window '0,0' needs lo < hi"),
        (["theorem5-report", "--set", "[0,1]", "--window", "1,0"], "window '1,0' needs lo < hi"),
        (["translate-vcdim", "--set", "[0,1]", "--window", "1,0"], "window '1,0' needs lo < hi"),
        (["border-sweep", "--r-exponents", "5"], "r-exponents '5' must be two integers LO:HI"),
        (["border-sweep", "--r-exponents", "4:x"], "r-exponents '4:x' must be two integers LO:HI"),
        (["border-sweep", "--r-exponents", "9:4"], "r-exponents '9:4' needs LO <= HI"),
        (["border-sweep", "--sets", "0"], "--sets must be >= 1, got 0"),
        (["border-sweep", "--sets", "-1"], "--sets must be >= 1, got -1"),
        (["counterexample", "--triples", "0"], "--triples must be >= 1, got 0"),
        (["counterexample", "--triples", "-5"], "--triples must be >= 1, got -5"),
        (["eps-approx", "--trials", "0", "--schedule", "10"], "--trials must be >= 1, got 0"),
        (["witness", "--depth", "3", "--stage-budget", "-1"], "--stage-budget must be >= 0, got -1"),
        (["eps-approx", "--schedule", ",", "--trials", "2"],
         "--schedule ',' must be comma-separated integers >= 1"),
        (["eps-approx", "--schedule", "10,x", "--trials", "2"],
         "--schedule '10,x' must be comma-separated integers >= 1"),
        (["eps-approx", "--schedule", "10,0", "--trials", "2"],
         "--schedule '10,0' must be comma-separated integers >= 1"),
        (["eps-approx", "--arc", "0", "--trials", "2", "--schedule", "10"],
         "--arc must be >= 1, got 0"),
        (["eps-approx", "--arc", "-3", "--trials", "2", "--schedule", "10"],
         "--arc must be >= 1, got -3"),
        (["vcdim", "--set", "arc:0"], "set spec 'arc:0' is empty"),
        (["vcdim", "--set", "arc:-2"], "set spec 'arc:-2' is empty"),
        (["vcdim", "--set", "list:"], "set spec 'list:' is empty"),
        (["vcdim", "--set", "list:1,x"], "set spec 'list:1,x' must be arc:K or list:a,b,c"),
        (["vcdim", "--set", "arc:x"], "set spec 'arc:x' must be arc:K or list:a,b,c"),
        (["vcdim", "--group", "cyclic:y"],
         "group spec 'cyclic:y' must be cyclic:N with an integer N >= 1"),
        (["vcdim", "--group", "product:2xq"], "group spec 'product:2xq' must be cyclic:N"),
        (["vcdim", "--group", "product:"], "group spec 'product:' must be cyclic:N"),
        (["vcdim", "--group", "reals:0"], "group spec 'reals:0' must be cyclic:N"),
        (["eps-approx", "--epsilon", "1/0", "--trials", "2"],
         "--epsilon '1/0': rational '1/0' has a zero denominator"),
        (["eps-approx", "--group", "cyclic:10", "--arc", "10", "--trials", "2", "--schedule", "5"],
         "--arc 10 covers all of cyclic:10"),
        (["eps-approx", "--group", "cyclic:10", "--arc", "20", "--trials", "2", "--schedule", "5"],
         "--arc 20 covers all of cyclic:10"),
        (["steinhaus", "--shifts", ","], "--shifts ',': empty rational literal"),
        (["steinhaus", "--shifts", "1/10,abc"],
         "--shifts '1/10,abc': rational 'abc' must be p/q, an integer"),
        (["steinhaus", "--shifts", "1/0"], "--shifts '1/0': rational '1/0' has a zero denominator"),
        (["steinhaus", "--stage", "17"], "--stage 17 is above the cap of 16"),
        (["steinhaus", "--stage", "40"], "--stage 40 is above the cap of 16"),
        (["counterexample", "--matched", "9"], "the truncation would place more than 839 points"),
        (["counterexample", "--matched", "1000000"],
         "the truncation would place more than 839 points"),
        (["counterexample", "--intervals", "200", "--points-per", "5"],
         "the truncation would place more than 839 points"),
        (["counterexample", "--intervals", "1000000000", "--points-per", "1"],
         "the truncation would place more than 839 points"),
        (["steinhaus", "--removed-scale", "abc"],
         "--removed-scale 'abc': rational 'abc' must be p/q, an integer"),
        (["eps-approx", "--epsilon", "x", "--trials", "2"],
         "--epsilon 'x': rational 'x' must be p/q, an integer"),
        (["border-sweep", "--window", "a,b"], "window 'a,b': rational 'a' must be p/q, an integer"),
        (["theorem5-report", "--set", "[0,x]"],
         "--set '[0,x]': rational 'x' must be p/q, an integer"),
        (["translate-vcdim", "--set", "[0,x]"],
         "--set '[0,x]': rational 'x' must be p/q, an integer"),
        (["theorem5-report", "--set", "[0,1"], "--set '[0,1': cannot parse set component '[0,1'"),
        (["translate-vcdim", "--set", "[0,1"], "--set '[0,1': cannot parse set component '[0,1'"),
        (["theorem5-report", "--set", "[1,0]"],
         "--set '[1,0]': piece '[1,0]' must have lo < hi, or lo = hi with both ends closed"),
        (["translate-vcdim", "--set", "[1,0]"],
         "--set '[1,0]': piece '[1,0]' must have lo < hi, or lo = hi with both ends closed"),
        (["theorem5-report", "--set", "[0,1]", "--window", "0,x"],
         "window '0,x': rational 'x' must be p/q, an integer"),
        (["translate-vcdim", "--set", "[0,1]", "--window", "0,1/0"],
         "window '0,1/0': rational '1/0' has a zero denominator"),
        (["witness", "--depth", "2", "--removed-scale", "4/"],
         "--removed-scale '4/': rational '4/' must be p/q, an integer"),
        (["counterexample", "--removed-scale", "1/0"],
         "--removed-scale '1/0': rational '1/0' has a zero denominator"),
        (["translate-vcdim", "--set", "(0,0)"],
         "--set '(0,0)': piece '(0,0)' must have lo < hi, or lo = hi with both ends closed"),
        (["theorem5-report", "--set", "[1/2,1/2)"],
         "--set '[1/2,1/2)': piece '[1/2,1/2)' must have lo < hi, or lo = hi with both ends closed"),
        (["translate-vcdim", "--set", "{}"], "--set '{}' is empty, so the run would check nothing"),
        (["translate-vcdim", "--set", ""], "--set '' is empty, so the run would check nothing"),
        (["theorem5-report", "--set", "{}"], "--set '{}' is empty, so the run would check nothing"),
        (["vcdim", "--group", "cyclic:8193"], "--group cyclic:8193 is above the cap of cyclic:8192"),
        (["vcdim", "--group", "cyclic:100000", "--set", "arc:3"],
         "--group cyclic:100000 is above the cap of cyclic:8192"),
        (["witness", "--depth", "0"], "--depth must be >= 1, got 0"),
        (["witness", "--depth", "-1"], "--depth must be >= 1, got -1"),
        (["counterexample", "--matched", "0"], "--matched must be >= 1, got 0"),
        (["counterexample", "--intervals", "0"], "--intervals must be >= 1, got 0"),
        (["counterexample", "--points-per", "0"], "--points-per must be >= 1, got 0"),
        (["eps-approx", "--epsilon", "0", "--trials", "2"], "--epsilon '0' must be positive"),
        (["eps-approx", "--epsilon", "-1/5", "--trials", "2"], "--epsilon '-1/5' must be positive"),
        (["eps-approx", "--epsilon", "1", "--trials", "2"], "--epsilon '1' must be below 1"),
        (["eps-approx", "--epsilon", "3/2", "--trials", "2"], "--epsilon '3/2' must be below 1"),
        (["witness", "--depth", "2", "--removed-scale", "1"],
         "--removed-scale '1' must lie strictly between 0 and 1"),
        (["steinhaus", "--removed-scale", "0"],
         "--removed-scale '0' must lie strictly between 0 and 1"),
        (["counterexample", "--removed-scale", "3/2"],
         "--removed-scale '3/2' must lie strictly between 0 and 1"),
        (["steinhaus", "--shifts", "1e100000000"],
         "--shifts '1e100000000': rational '1e100000000' has an exponent above 4300 in magnitude"),
        (["border-sweep", "--window=-1,1e99999"],
         "window '-1,1e99999': rational '1e99999' has an exponent above 4300 in magnitude"),
        (["witness", "--depth", "2", "--removed-scale", "1e-9999"],
         "--removed-scale '1e-9999': rational '1e-9999' has an exponent above 4300 in magnitude"),
        (["eps-approx", "--epsilon", "1e-5000", "--trials", "2"],
         "--epsilon '1e-5000': rational '1e-5000' has an exponent above 4300 in magnitude"),
        (["theorem5-report", "--set", "[0,1e-10000000]"],
         "--set '[0,1e-10000000]': rational '1e-10000000' has an exponent above 4300 in magnitude"),
        (["eps-approx", "--group", "cyclic:1000000000000", "--arc", "3", "--trials", "1",
          "--schedule", "1"], "--group cyclic:1000000000000 is above the cap of cyclic:1000000"),
    ],
    ids=["border-sweep", "eps-approx", "steinhaus", "reversed-window", "empty-window",
         "theorem5-reversed-window", "translate-vcdim-reversed-window", "one-exponent",
         "non-integer-exponent", "reversed-exponents", "no-sets", "negative-sets", "no-triples",
         "negative-triples", "no-trials", "negative-stage-budget", "empty-schedule",
         "non-integer-schedule", "zero-schedule", "no-arc", "negative-arc", "empty-arc-set",
         "negative-arc-set", "empty-list-set", "non-integer-list-set", "non-integer-arc-set",
         "non-integer-cyclic-group", "non-integer-product-group", "empty-product-group",
         "one-bound-reals-group", "zero-denominator", "whole-group-arc", "arc-past-whole-group",
         "empty-shifts", "non-rational-shift", "zero-denominator-shift", "stage-above-cap",
         "stage-far-above-cap", "matched-above-cap", "matched-far-above-cap",
         "points-above-cap", "intervals-far-above-cap", "non-rational-removed-scale",
         "non-rational-epsilon", "non-rational-window", "non-rational-set-bound",
         "translate-vcdim-non-rational-set-bound", "unclosed-set", "translate-vcdim-unclosed-set",
         "reversed-set-bound", "translate-vcdim-reversed-set-bound",
         "theorem5-non-rational-window", "translate-vcdim-zero-denominator-window",
         "witness-non-rational-removed-scale", "counterexample-zero-denominator-removed-scale",
         "translate-vcdim-degenerate-open-piece", "theorem5-degenerate-half-open-piece",
         "translate-vcdim-empty-set", "translate-vcdim-blank-set", "theorem5-empty-set",
         "group-above-vcdim-cap", "group-far-above-vcdim-cap", "no-depth", "negative-depth",
         "no-matched", "no-intervals", "no-points-per", "zero-epsilon", "negative-epsilon",
         "epsilon-one", "epsilon-above-one",
         "witness-removed-scale-one", "steinhaus-removed-scale-zero",
         "counterexample-removed-scale-above-one", "shift-exponent-above-cap",
         "window-exponent-above-cap", "removed-scale-exponent-above-cap",
         "epsilon-exponent-above-cap",
         "set-exponent-above-cap", "group-above-eps-cap"],
)
def test_bad_value_exits_2_with_one_line(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("VCLAB_OUT_DIR", str(tmp_path))
    assert main(["witness", "--depth", "1", "--seed", "0"]) == 0
    assert (tmp_path / "witness.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--depth", "2", "--seed", "3"],
        ["vcdim", "--group", "cyclic:10", "--set", "arc:2", "--seed", "3"],
        ["eps-approx", "--group", "cyclic:100", "--arc", "30", "--epsilon", "1/5",
         "--trials", "5", "--schedule", "50,100", "--seed", "3"],
        ["steinhaus", "--stage", "4", "--seed", "3"],
        ["border-sweep", "--sets", "2", "--r-exponents", "4:6", "--seed", "3"],
        ["counterexample", "--intervals", "2", "--points-per", "2", "--triples", "20", "--seed", "3"],
        ["theorem5-report", "--set", "[0,1/3)", "--seed", "3"],
        ["translate-vcdim", "--set", "{0} u {1/2}", "--window", "0,1", "--seed", "3"],
    ],
    ids=lambda a: a[0],
)
def test_artifacts_byte_identical_across_runs(tmp_path, argv):
    _, first = run(tmp_path, "first.out", argv)
    _, second = run(tmp_path, "second.out", argv)
    assert first.read_bytes() == second.read_bytes()
