"""Line-protocol oracle that answers N requests, then fails.

Usage: python3 partial_oracle.py MODE N
The first N requests get the discrete expected shortfall at level 1/n
(minus the smallest value). Then, by MODE:
  stall  stop reading and never reply
  exit   exit at once
  abc    reply 'abc' to every further request
  inf    reply 'inf' to every further request
"""

import sys
import time


def main() -> int:
    mode, answered = sys.argv[1], int(sys.argv[2])
    for count, line in enumerate(sys.stdin):
        if count < answered:
            reply = repr(-min(float(p) for p in line.split()))
        elif mode == "stall":
            time.sleep(3600)
            return 0
        elif mode == "exit":
            return 0
        else:
            reply = mode
        print(reply, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
