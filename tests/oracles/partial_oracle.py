"""Line-protocol oracle that answers N requests, then fails.

Usage: python3 partial_oracle.py MODE N
The first N requests get the discrete expected shortfall at level 1/n
(minus the smallest value). Then, by MODE:
  stall  stop reading and never reply
  exit   exit at once
  abc    reply 'abc' to every further request
  inf    reply 'inf' to every further request
  extra  reply to every further request, then write a second line, 99.0
  raise  raise an exception, so a traceback goes to stderr
  noisy  write 1 MiB to stderr before each further reply
"""

import sys
import time


def main() -> int:
    mode, answered = sys.argv[1], int(sys.argv[2])
    for count, line in enumerate(sys.stdin):
        reply = repr(-min(float(p) for p in line.split()))
        if count >= answered:
            if mode == "stall":
                time.sleep(3600)
                return 0
            if mode == "exit":
                return 0
            if mode == "raise":
                raise RuntimeError(f"failing on request {count + 1}")
            if mode == "extra":
                reply += "\n99.0"
            elif mode == "noisy":
                sys.stderr.write("x" * (1 << 20) + "\n")
                sys.stderr.flush()
            else:
                reply = mode
        print(reply, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
