#!/usr/bin/env python
"""spark-submit entrypoint — Table 3: dataset statistics before/after pruning

Usage: spark-submit jobs/table03_datasets.py  (or: python jobs/table03_datasets.py)
"""
from repro.tables import t03_datasets


def main():
    t03_datasets.run()


if __name__ == "__main__":
    main()
