#!/usr/bin/env python3
"""How close each verify check comes to its bound over many seeds.

Runs the full verify suite (20 trials, as ``shadowosc verify``) for the
seeds S, S + 1, ..., S + N - 1 and prints one JSON object: per check name,
the worst residual over tolerance, the seed and the subject that gave it.
A value above 1 is a failed check; ``shadowosc verify --seed SEED``
reproduces it.

Usage:
    python scripts/verify_headroom.py --seeds N [--seed S]
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shadowosc.verify import BOUND, full_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")

    worst: dict[str, dict] = {}
    failed = 0
    for seed in range(args.seed, args.seed + args.seeds):
        reports = full_suite(seed=seed)
        failed += not all(rep.passed for rep in reports)
        for rep in reports:
            for c in rep.checks:
                headroom = c.residual / c.tolerance
                if c.name not in worst or not headroom <= worst[c.name]["headroom"]:
                    worst[c.name] = {"headroom": headroom, "seed": seed,
                                     "subject": rep.subject}
    print(json.dumps({"first_seed": args.seed, "seeds": args.seeds, "bound": BOUND,
                      "failed_suites": failed, "checks": worst}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
