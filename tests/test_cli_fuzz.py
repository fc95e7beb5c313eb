"""Seeded fuzz of the command line through `cli.main`, in process.

Each argv names a subcommand and a random subset of its flags.  A flag takes
the first, valid value of its list 70% of the time, so that a good share of
the argv run, and otherwise any value of the list, hostile ones included
(empty, `1/0`, huge exponents, reversed windows, malformed sets, negative
counts, trailing newlines, ...).  It is written as `--flag value` or
`--flag=value`.  Some argv add an unknown flag or a stray token, and a few
name no subcommand or an unknown one.  An argparse `SystemExit` counts as
its exit code.

The count flags that size a run (`--sets`, `--trials`, `--depth`,
`--triples`, `--stage`, ...) are always given and drawn from a small range,
since a run takes time linear or worse in them: that is a runtime bound for
tier-1, not a skipped case.  Values above a flag's cap are still drawn where
the cap rejects them before any work.
"""

import random

import pytest

from vclab.cli import main

SEEDS = ["0", "7", "-1", "abc", "", "1.5", "99999999999999999999"]
SMALL = ["2", "1", "0", "-1", "abc", "", "1.5", "2\n"]
RATIONALS = ["4/5", "1/2", "0", "1", "2", "-1/2", "1/0", "0/0", "", "abc", "1e4301",
             "1e100000000", "0.25", "1e-5", " 3/4 ", "4/5\n", "--", "-"]
WINDOWS = ["0,1", "-1,1", "1,0", "0,0", "2,3", "125,250", "-3,-2", "0", "0,1,2", "a,b",
           "1/0,1", "0,1e4301", "", ",", "0,1e-9", "0,1\n"]
SETS = ["[0,1]", "[0,1/7]", "[0,1/2) u (3/4,1] u {2}", "{1/3}", "{}", "", "[1,0]", "(0,0)",
        "[0,1", "[0,1/0]", "{a}", "[0,1] u", "(0,1) u {2} u [3,4)", "[0,1e4301]",
        "[-1,1] u [1,2]", "[0,1]\n{2}"]
COMMON = {"seed": SEEDS,
          "out": ["out.json", "", "missing/out.json", ".", "out\n.json"],
          "config": ["ok.json", "missing.json", "bad.json", "list.json", "badkey.json",
                     "type.json"]}
CONFIGS = {"ok.json": '{"seed": 3}', "bad.json": "{", "list.json": "[1]",
           "badkey.json": '{"nope": 1}', "type.json": '{"seed": [1]}'}
SCALE = {"removed-scale": RATIONALS}

# Per subcommand: the count flags, always given, and the other flags, each
# given or left at its default.  The first value of every list is valid.
COMMANDS = {
    "vcdim": ({}, {"group": ["cyclic:12", "cyclic:1", "cyclic:0", "cyclic:-3", "cyclic:",
                             "cyclic:abc", "arc:3", "cyclic:8193", "cyclic:99999999999",
                             "cyclic:1e3", "cyclic:12\n"],
                   "set": ["arc:3", "arc:0", "arc:-1", "arc:13", "list:1,2,5", "list:",
                           "list:a", "list:1,,2", "nope", ""]}),
    "eps-approx": ({"trials": SMALL,
                    "group": ["cyclic:50", "cyclic:1", "cyclic:0", "cyclic:1000001",
                              "cyclic:abc", "arc:3"],
                    "schedule": ["5,10", "1", "0", "-5", "", "a", "5,,10"],
                    "arc": ["3", "0", "-1", "49", "50", "abc", ""]},
                   {"epsilon": RATIONALS}),
    "steinhaus": ({"stage": ["3", "0", "-1", "6", "17", "99999999999", "x"]},
                  {"shifts": ["1/100,-1/100", "0", "", ",", "1/0", "1e4301", "-1/20", "abc",
                              "1/10,1/10"], **SCALE}),
    "witness": ({"depth": ["2", "3", "1", "0", "-1", "abc", ""]},
                {"stage-budget": ["2000", "5", "0", "-1", "99999999999", "x"], **SCALE}),
    "border-sweep": ({"sets": SMALL, "r-exponents": ["4:6", "6:4", "0:0", "-2:1", "a:b", "4",
                                                     "4:5:6", "", ":"]},
                     {"window": WINDOWS}),
    "counterexample": ({"triples": SMALL, "intervals": SMALL, "points-per": SMALL},
                       {"matched": ["2", "1", "0", "-1", "x"], **SCALE}),
    "theorem5-report": ({"set": SETS}, {"window": WINDOWS}),
    "translate-vcdim": ({"set": SETS}, {"window": WINDOWS}),
}

# Exit 1 means a verification ran and failed; these are the subcommands
# that verify something.
VERIFYING = {"witness", "theorem5-report", "steinhaus", "border-sweep", "counterexample"}
STRAYS = ["--bogus", "stray", "-h", "--seed", "--depth=1"]


def flag(rng, name, values):
    value = values[0] if rng.random() < 0.7 else rng.choice(values)
    return [f"--{name}={value}"] if rng.random() < 0.5 else [f"--{name}", value]


def draw_argv(rng):
    if rng.random() < 0.03:
        return rng.choice([[], ["selftest"], [""], ["--seed", "1"], ["-x"]])
    command = rng.choice(sorted(COMMANDS))
    counts, options = COMMANDS[command]
    argv = [command]
    for name, values in counts.items():
        argv += flag(rng, name, values)
    for name, values in {**options, **COMMON}.items():
        if rng.random() < 0.4:
            argv += flag(rng, name, values)
    if rng.random() < 0.1:
        argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(STRAYS))
    return argv


def test_hostile_argv_give_documented_exits(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("VCLAB_OUT_DIR", raising=False)
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text)
    rng = random.Random("cli-fuzz")
    codes = []
    for _ in range(400):
        argv = draw_argv(rng)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - any escape is the finding
            pytest.fail(f"{argv!r} raised {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 2, 3) or code == 1 and argv[0] in VERIFYING, (argv, code, err)
        if code == 2:
            assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)
        codes.append(code)
    # The draws reach both working runs and usage errors.
    assert {0, 2} <= set(codes)
