"""Make a workload's inputs and reference answers in a process of their own.

Reads {"src": <dir holding qualred>, "workload": <name>, "seed": <n>} from
stdin and writes to stdout, pickled, the names of the reference self-test
cases that failed, the input texts and the workload's state with its
reference answers. The run's own process thus never holds the reference
code's working tables, and its peak memory is the program's and the
inputs'.
"""

import json
import pickle
import sys

job = json.load(sys.stdin)
sys.path.insert(0, job["src"])
import selftest  # noqa: E402
import workloads  # noqa: E402

wl = workloads.WORKLOADS[job["workload"]]()
texts = wl.make_inputs(job["seed"])
pickle.dump((selftest.run(), texts, vars(wl)), sys.stdout.buffer)
