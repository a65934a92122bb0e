#!/usr/bin/env python
"""spark-submit entrypoint — Table 15: Quick+ vs Quick (single-threaded)

Usage: spark-submit jobs/table15_quick_vs_quickplus.py  (or: python jobs/table15_quick_vs_quickplus.py)
"""
from repro.tables import t15_16_quick


def main():
    t15_16_quick.run_t15()


if __name__ == "__main__":
    main()
