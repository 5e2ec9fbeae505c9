"""Time one cold set-up: import qualred and parse every input.

Reads {"src": <dir holding qualred>, "texts": [...]} from stdin before the
clock starts, then prints the seconds taken by the imports and the parses.
Run as a fresh process so the imports are really done.
"""

import json
import sys
import time

job = json.load(sys.stdin)
sys.path.insert(0, job["src"])
start = time.perf_counter()
import qualred  # noqa: E402
import qualred.cli  # noqa: E402,F401

for text in job["texts"]:
    qualred.parse_game(text)
print(time.perf_counter() - start)
