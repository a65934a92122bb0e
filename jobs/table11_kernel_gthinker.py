#!/usr/bin/env python
"""spark-submit entrypoint — Table 11: top-k kernel expansion in G-thinker

Usage: spark-submit jobs/table11_kernel_gthinker.py  (or: python jobs/table11_kernel_gthinker.py)
"""
from repro.tables import t09_11_kernel


def main():
    t09_11_kernel.run_t11()


if __name__ == "__main__":
    main()
