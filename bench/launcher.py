"""Starts the cli workload's requests and reports each one's own peak RSS.

On Linux a child inherits, in its ru_maxrss, the peak RSS of the process
that started it (exec records the old memory's high-water mark), so the
requests are started from this small process rather than from the
worker, which holds the expected outputs.

Prints READY once it is up, then reads one JSON object per line on stdin, {"cmd": [...], "stdout": path,
"stderr": path, "timeout": seconds}, runs the command in the current
directory and environment, and answers with one line
{"returncode": int, "maxrss_kb": int}.  Ends at the end of its input.
"""

import json
import os
import subprocess
import sys
import threading


def main() -> None:
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    for line in sys.stdin:
        job = json.loads(line)
        with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
            proc = subprocess.Popen(job["cmd"], stdout=out, stderr=err)
        timer = threading.Timer(job["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({"returncode": proc.returncode,
                                     "maxrss_kb": usage.ru_maxrss}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
