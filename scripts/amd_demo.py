#!/usr/bin/env python3
"""Descriptor demo on the bundled CIF fixtures.

Computes length-k descriptors for every structure under fixtures/cif,
prints the leading entries next to their known lattice spacings, and
writes the full CSV artifacts via the CLI.
"""

import argparse
import sys
from pathlib import Path

from blockflow import amd, load_cif_file
from blockflow.cli import main as cli

REPO = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cif-dir", type=Path, default=REPO / "fixtures" / "cif")
    parser.add_argument("--out", type=Path, default=Path("out/amd_demo"))
    parser.add_argument("-k", type=int, default=20)
    args = parser.parse_args()

    for path in sorted(args.cif_dir.glob("*.cif")):
        ps = load_cif_file(path)
        values = amd(ps, args.k)
        head = " ".join(f"{v:.3f}" for v in values[:8])
        print(f"{path.name:<16} motif={ps.motif.shape[0]:<3} amd[1..8] = {head}")

    code = cli(["amd", "--cif-dir", str(args.cif_dir), "-k", str(args.k),
                "--out", str(args.out)])
    if code != 0:
        sys.exit(code)
    print(f"\nfull descriptors and distance matrix under {args.out}")


if __name__ == "__main__":
    main()
