"""Line tracer of mutants/lines.py.

While LINES_DUMP_DIR is set, `trace` records the lines of src/superplane/
that run in this interpreter, and at exit they go to <pid>.json in that
directory.  The probe puts this directory on PYTHONPATH, so every
interpreter that the tests start loads this module at start-up.
"""

import atexit
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src", "superplane", "")

hits = {}  # file name under SRC -> line numbers run
_local = {}  # code file name -> its line recorder, None outside SRC


def _recorder(filename):
    path = os.path.abspath(filename)
    if not path.startswith(SRC):
        return None
    lines = hits.setdefault(path[len(SRC):], set())

    def record(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return record
    return record


def trace(frame, event, arg):
    name = frame.f_code.co_filename
    try:
        return _local[name]
    except KeyError:
        rec = _local[name] = _recorder(name)
        return rec


def _dump():
    import json

    path = os.path.join(os.environ["LINES_DUMP_DIR"], f"{os.getpid()}.json")
    with open(path, "w") as f:
        json.dump({k: sorted(v) for k, v in hits.items()}, f)


if os.environ.get("LINES_DUMP_DIR"):
    sys.settrace(trace)
    atexit.register(_dump)
