"""External GSA evaluator stand-in.

    python -S -I adapter.py VOCAB_CSV SCALE [--probe-radius=R --samples=N]

Reads one assembly record (`name:TOK1,TOK2,...`) on stdin and prints the
surrogate GSA, scale * sum(surface) / sum(mass) over its tokens, as `repr`.
It uses only the standard library, so each call costs one bare interpreter
start, and its value is bit-equal to the built-in surrogate. The flags the
trainer appends are accepted and ignored.
"""

import csv
import sys


def main(argv):
    vocab_path, scale = argv[1], float(argv[2])
    with open(vocab_path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    table = {row[0].strip(): (float(row[2]), float(row[3])) for row in rows[1:] if row}
    record = sys.stdin.readline().strip()
    tokens = record.partition(":")[2].split(",")
    surface = 0.0
    mass = 0.0
    for token in tokens:
        m, s = table[token.strip()]
        mass += m
        surface += s
    print(repr(scale * surface / mass))


if __name__ == "__main__":
    main(sys.argv)
