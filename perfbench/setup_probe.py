"""Set-up probe, run in a fresh interpreter by run.py.

Reads the workload's presentation documents as a JSON list on stdin, then
times importing hopfgrow from the source tree given as argv[1] plus parsing
and validating every document.  Prints the seconds taken.
"""

import json
import sys
import time


def main():
    docs = json.load(sys.stdin)
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import hopfgrow
    for doc in docs:
        hopfgrow.parse_presentation_data(doc)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
