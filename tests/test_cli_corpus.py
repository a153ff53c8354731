"""The command line's output corpus (cli_corpus.py): every command gives
the exit code, stdout and stderr recorded in tests/corpus/manifest.json."""

import os
import subprocess
import sys

from cli_corpus import REFUSALS, ROOT, commands, entry, first_difference, load_manifest, run
from skewbrack import polyvec


def test_every_command_gives_its_recorded_output():
    recorded = load_manifest()
    argvs = commands()
    listed = [tuple(argv) for argv in argvs]
    assert len(set(listed)) == len(listed)
    missing = [argv for argv in listed if argv not in recorded]
    assert not missing, f"{len(missing)} commands not in the manifest, the first {missing[0]}"
    extra = recorded.keys() - set(listed)
    assert not extra, f"{len(extra)} manifest entries that are no command, one {min(extra)}"
    difference = first_difference(argvs, recorded)
    assert difference is None, difference


def test_each_refusal_exits_2_naming_its_field():
    for argv, field in REFUSALS:
        code, out, err = run(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        assert field in err, (field, err)


def test_a_sign_flipped_in_printing_fails_the_check_at_its_first_command(monkeypatch):
    # every printed polyvector term negated: the first command of a slice
    # of the corpus, a group report, prints omega_e = 1 as (-1)
    term_str = polyvec._term_str
    monkeypatch.setattr(polyvec, "_term_str", lambda c, exps, idx: term_str(-c, exps, idx))
    argvs = commands()[::100]
    difference = first_difference(argvs, load_manifest())
    assert difference is not None
    assert f"of {len(argvs)} commands differ" in difference
    assert f"  skewbrack {' '.join(argvs[0])}\n  exit 0 -> 0, stdout changed" in difference
    assert "omega (-1)" in difference


def test_a_few_commands_give_the_recorded_output_in_a_process_of_their_own():
    # the in-process runner measures what a user sees, and no state
    # carries from one command to the next; the hash seed is fixed here
    # and random in process
    s4 = "perfbench/data/classes/s4"
    spot = [
        ["group", "src/skewbrack/examples/binary_tetrahedral_k2_z4.json", "--json"],
        ["cohomology", "perfbench/data/groups/d5.json", "--p", "2", "--m", "1", "--json"],
        ["bracket", "perfbench/data/groups/s4.json", f"{s4}/p2m1_2.json", f"{s4}/p1m1_1.json",
         "--json", "--reynolds", "--project"],
        ["verify", "examples"],
        ["group", "tests/corpus/literal_non_ascii_digit.json"],
    ]
    recorded = load_manifest()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONIOENCODING": "utf-8",
           "PYTHONHASHSEED": "777"}
    for argv in spot:
        proc = subprocess.run([sys.executable, "-m", "skewbrack.cli", *argv], cwd=ROOT,
                              capture_output=True, env=env, timeout=60)
        assert entry(argv, proc.returncode, proc.stdout, proc.stderr) == recorded[tuple(argv)], \
            (argv, proc.stderr)
