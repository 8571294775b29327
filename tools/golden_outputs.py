"""Recompute the frozen CLI outputs of tests/golden.py on several interpreters.

Run from anywhere, naming the interpreters to check:

    python3 tools/golden_outputs.py [/path/to/python3.10 /path/to/python3.13 ...]

With no arguments it checks the interpreter that runs it.  Each interpreter
runs in a child of its own that imports this checkout's src/qdigits and
tests/golden.py, both without pytest, and runs every golden command
in-process through qdigits.cli.main: the 24 sha256 digests of GOLDEN, and
the `bridge` run behind each seed of acceptance criterion 7's
DECAY_FIXTURES.  It prints one line per interpreter and exits 1 if any
output differs or any child fails.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_here() -> dict:
    """Run every golden command on this interpreter: the keys that matched
    and the first that did not."""
    import contextlib
    import hashlib
    import io
    import tempfile

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from golden import COMMANDS, DECAY_FIXTURES, GOLDEN
    from qdigits.cli import main

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        return code, out.getvalue().encode("utf-8")

    matched, missed = [], []
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"{out}": Path(tmp, "c.csv"), "{svg}": Path(tmp, "c.svg")}
        outputs = {}  # argv -> (exit code, {where: bytes})
        for key, (argv, code, where) in COMMANDS.items():
            if tuple(argv) not in outputs:
                got, stdout = run([str(paths.get(a, a)) for a in argv])
                files = {w: p.read_bytes() for w, p in paths.items() if p.exists()}
                for p in paths.values():
                    p.unlink(missing_ok=True)
                outputs[tuple(argv)] = got, {"stdout": stdout, **files}
            got, streams = outputs[tuple(argv)]
            data = streams.get(where)
            ok = got == code and data is not None and hashlib.sha256(data).hexdigest() == GOLDEN[key]
            (matched if ok else missed).append(key)
    for seed, expected in DECAY_FIXTURES.items():
        code, stdout = run(["bridge", "--q", "3/4", "--seed", str(seed)])
        levels = json.loads(stdout)["levels"] if code == 0 else []
        got = [
            [
                lvl["r"],
                lvl["n_j"],
                lvl["sup_distance"],
                hashlib.sha256(lvl["sup_distance_exact"].encode()).hexdigest()[:16],
            ]
            for lvl in levels
        ]
        ok = got == [list(row) for row in expected]
        (matched if ok else missed).append(f"decay seed {seed}")
    return {"python": sys.version.split()[0], "matched": matched, "missed": missed}


def main() -> int:
    if sys.argv[1:] == ["--child"]:
        print(json.dumps(check_here()))
        return 0
    failed = False
    for python in sys.argv[1:] or [sys.executable]:
        try:
            child = subprocess.run(
                [python, __file__, "--child"], capture_output=True, text=True, timeout=1200
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            print(f"{python}: could not run: {exc}")
            failed = True
            continue
        if child.returncode != 0:
            tail = (child.stderr.strip().splitlines() or ["no output"])[-1]
            print(f"{python}: exit {child.returncode}: {tail}")
            failed = True
            continue
        result = json.loads(child.stdout)
        matched, missed = result["matched"], result["missed"]
        line = f"{python} ({result['python']}): {len(matched)}/{len(matched) + len(missed)} match"
        if missed:
            line += ", first mismatch: " + missed[0]
            failed = True
        print(line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
