"""Set-up probe: a fresh interpreter imports wgdisp.cli and runs one op.

    python3 bench/child.py <src-dir> '<json list of argv lists>'

Prints one JSON line with the CLOCK_MONOTONIC time at which the op
finished and the exit codes, so the launching process can take the wall
time from spawn to a finished first op.
"""

import contextlib
import io
import json
import sys
import time

sys.path.insert(0, sys.argv[1])

import wgdisp.cli  # noqa: E402

rcs = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        rcs.append(wgdisp.cli.main(argv))
done = time.monotonic()
print(json.dumps({"done": done, "rcs": rcs}))
