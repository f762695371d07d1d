#!/usr/bin/env python3
"""Warm the on-disk cache with the family records for n <= 64."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from orderone import serialize
from orderone.madanpal import build_record


def main():
    directory = serialize.cache_dir()
    for n in range(1, 65):
        serialize.cache_get_or_compute(
            f"madan_pal_{n}",
            lambda n=n: serialize.encode_record(build_record(n)),
            directory,
        )
    print(f"records for n <= 64 cached under {directory}")


if __name__ == "__main__":
    main()
