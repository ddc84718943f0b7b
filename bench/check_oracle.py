"""Show that the answer oracle can fail.

    python3 bench/check_oracle.py

Runs `inner` and `der` on SL^{3,2} through the harness's own run_pass three
times: as they are, with one expected value made wrong, and with one
derivation basis vector dropped from the `der` answer.  The first must
count no failed op, the other two must count the ops they spoil.  Exits 0
when all three do, 1 otherwise.
"""

import contextlib
import io
import json
import os
import shutil
import sys

import run
from workloads import Op, Rung


class WrongRung(Rung):
    """SL^{3,2} expecting one even derivation too many."""

    def der_dims(self):
        even, odd = super().der_dims()
        return even + 1, odd


def drop_one_vector(main):
    """A CLI main whose `der` answer loses its last even basis map."""
    def spoiled(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        text = out.getvalue()
        if argv[0] == "der":
            obj = json.loads(text)
            obj["even"]["basis"].pop()
            text = json.dumps(obj)
        sys.stdout.write(text)
        return code
    return spoiled


def ops_for(rung, path):
    return [Op("inner", ["inner", path, "--format", "json"], rung),
            Op("der", ["der", path, "--parity", "both", "--format", "json"], rung)]


def main():
    sys.path.insert(0, run.SRC)
    superalg = run.fresh_import()
    cli_main = sys.modules["superalg.cli"].main
    workdir = os.path.join(run.WORK, "check-oracle-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        rung = Rung("SL", (3,), (2,))
        path = os.path.join(workdir, rung.tag + ".json")
        superalg.dump_algebra(rung.build(superalg), path)
        cases = [
            ("answers as given", cli_main, ops_for(rung, path), 0),
            ("one wrong expected value", cli_main,
             ops_for(WrongRung("SL", (3,), (2,)), path), 2),
            ("der answer missing one basis vector", drop_one_vector(cli_main),
             ops_for(rung, path), 1),
        ]
        ok = True
        for label, main_fn, ops, want in cases:
            _, failures = run.run_pass(main_fn, ops, None)
            good = len(failures) == want
            ok = ok and good
            print("%s: %d of %d ops failed, want %d: %s"
                  % (label, len(failures), len(ops), want, "ok" if good else "WRONG"))
            for reason in failures:
                print("  " + reason)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
