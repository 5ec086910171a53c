"""Line-protocol oracle whose every reply is padded: SPACES spaces, then
`1` and a newline, written in 64 KiB pieces so that the oracle itself
stays small.

Usage: python3 long_reply_oracle.py SPACES
"""

import sys

PIECE = b" " * (1 << 16)


def main() -> int:
    whole, rest = divmod(int(sys.argv[1]), len(PIECE))
    out = sys.stdout.buffer
    for _ in sys.stdin:
        for _ in range(whole):
            out.write(PIECE)
        out.write(PIECE[:rest] + b"1\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
