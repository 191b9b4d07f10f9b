"""Seeded mutations of valid argvs never end ``cli.main`` in a traceback.

Each mutated argv must make ``main`` return 0 or 3, or raise SystemExit
with code 0 (``--help``) or 2 (a usage error); any other exception fails.
The mutations delete, repeat, swap, replace or truncate tokens, or edit one
field of a compound value such as ``--gen n,muL,muH,pL,seed``. Their sizes
stay small, so every call is quick; an argv already tried is not run again.
"""

import contextlib
import io
import random

import pytest

from wcs.cli import main

NEWSVENDOR = ["--r", "10", "--c", "2", "--s", "4", "--gen", "8,10,100,0.9,42"]
VALID_ARGVS = {
    "sensitivity": ["sensitivity", "--family", "combo", "--costs", "1,5,3", "--probs",
                    "0.2,0.3,0.5", "--alpha", "0.5"],
    "sensitivity-wasserstein": ["sensitivity", "--family", "wasserstein", "--costs", "1,5,3",
                                "--points", "0,1,3"],
    "worst-case": ["worst-case", "--family", "phi", "--phi", "kl", "--eps", "0.3", "--costs",
                   "1,5,3", "--probs", "0.2,0.3,0.5"],
    "frontier": ["frontier", "--family", "tv", "--measure", "phi", "--eps-geom", "0.1:1:3",
                 *NEWSVENDOR],
    "frontier-dataset": ["frontier", "--family", "wasserstein", "--measure", "budgeted",
                         "--eps-list", "0,0.1", "--gen-class", "20,2,1,2"],
    "solve-newsvendor": ["solve-newsvendor", *NEWSVENDOR, "--family", "box", "--eps", "0.5"],
    "solve-logreg": ["solve-logreg", "--gen-class", "20,2,0.7,11", "--eps", "0.1"],
    "verify": ["verify", "--trials", "2", "--seed", "1"],
}
# replacement tokens and fields: malformed, non-finite, out of range, or another flag
JUNK = ["", "-", "--", "x", "nan", "inf", "-inf", "1e400", "-1", "0", "3", "0.5", ",", ":",
        "1,2", "0:1:2", "--help", "--gen", "--eps", "--family", "phi"]
JUNK_FIELDS = ["", "x", "nan", "inf", "-1", "0", "1", "2", "0.5", "1e400", " 3"]
MUTATIONS_PER_ARGV = 375


def _mutate(rng: random.Random, argv: list[str]) -> list[str]:
    if not argv:
        return []
    argv = list(argv)
    i = rng.randrange(len(argv))
    op = rng.randrange(6)
    if op == 0:
        del argv[i]
    elif op == 1:
        argv.insert(i, argv[i])
    elif op == 2:
        j = rng.randrange(len(argv))
        argv[i], argv[j] = argv[j], argv[i]
    elif op == 3:
        argv[i] = rng.choice(JUNK)
    elif op == 4:
        del argv[i:]
    else:
        sep = ":" if ":" in argv[i] else ","
        fields = argv[i].split(sep)
        k = rng.randrange(len(fields))
        edit = rng.randrange(3)
        if edit == 0:
            del fields[k]
        elif edit == 1:
            fields.insert(k, rng.choice(JUNK_FIELDS))
        else:
            fields[k] = rng.choice(JUNK_FIELDS)
        argv[i] = sep.join(fields)
    return argv


def _outcome(argv: list[str]):
    """main's return value, or "exit <code>" for a SystemExit; stdout and stderr are dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return f"exit {exc.code}"


@pytest.mark.parametrize("name", list(VALID_ARGVS))
def test_mutated_argv_exits_cleanly(name):
    assert _outcome(VALID_ARGVS[name]) == 0
    rng = random.Random(f"argv-fuzz/{name}")
    seen, bad = set(), []
    for _ in range(MUTATIONS_PER_ARGV):
        argv = VALID_ARGVS[name]
        for _ in range(rng.randint(1, 2)):
            argv = _mutate(rng, argv)
        if tuple(argv) in seen:
            continue
        seen.add(tuple(argv))
        try:
            outcome = _outcome(argv)
        except Exception as exc:
            outcome = repr(exc)
        if outcome not in (0, 3, "exit 0", "exit 2"):
            bad.append((argv, outcome))
    assert not bad, bad[:5]
