"""Process launcher: runs the benchmark's commands and reports their resource use.

It runs as a small interpreter of its own because a child's ru_maxrss starts
from the peak RSS of the process that spawned it, and the benchmark's main
process grows while it parses the outputs. Spawned from here, a command's
peak RSS is its own.

One JSON request per stdin line: {"argv", "cwd", "env", "stdout", "stderr",
"timeout"}; one JSON reply per stdout line: {"code", "wall", "cpu", "maxrss_kb"}.
The command's stdout and stderr go to the named files. A command still
running after ``timeout`` seconds is killed.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, cwd=req["cwd"],
                                env=req["env"])
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            # wait4 also folds in the children the command reaped, such as pool workers
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
