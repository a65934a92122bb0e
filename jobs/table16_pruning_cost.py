#!/usr/bin/env python
"""spark-submit entrypoint — Table 16: per-pruning-phase cost

Usage: spark-submit jobs/table16_pruning_cost.py  (or: python jobs/table16_pruning_cost.py)
"""
from repro.tables import t15_16_quick


def main():
    t15_16_quick.run_t16()


if __name__ == "__main__":
    main()
