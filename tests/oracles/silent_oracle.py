"""Line-protocol oracle that never replies: it reads and discards every
request line and exits at the end of its input."""

import sys


def main() -> int:
    for _ in sys.stdin:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
