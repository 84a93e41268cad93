#!/usr/bin/env python3
"""Regenerate the published cost tables and the comparison-constant curve.

Writes four CSV files into --out-dir (default: results/) with the CLI's own
formatting, so each file is byte-identical to the matching `mediocre table`
or `mediocre plot-data --from 0.005 --to 0.33 --step 0.005` output.
"""

import argparse
from pathlib import Path

from mediocre.cli import curve_lines, table_lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("results"))
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    files = {f"{which}_table.csv": table_lines(which) for which in ("f", "constants", "hyper4")}
    files["curve.csv"] = curve_lines(0.005, 0.33, 0.005)
    for name, lines in files.items():
        path = args.out_dir / name
        path.write_text("\n".join(lines) + "\n")
        print(f"wrote {path} ({len(lines) - 1} rows)")


if __name__ == "__main__":
    main()
