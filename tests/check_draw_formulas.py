"""Check, on the running interpreter, the two facts about ``random.Random``
that a core_synthetic sequence's chunked draw rests on (standard library
only, so it runs without numpy):

1. ``random()`` is ((w0 >> 5) * 2**26 + (w1 >> 6)) * 2**-53 of the next two
   32-bit words w0, w1, and ``getrandbits(64 * M).to_bytes(8 * M, "little")``
   holds the words of M such calls in order, each little-endian;
2. ``randrange(B)`` is the first of the values w >> (32 - B.bit_length()),
   over the next words w, that is below B, and the words of
   ``getrandbits(32 * W)`` are those next words.

Run it as ``python tests/check_draw_formulas.py``; it exits 1 and names the
seed and the draw on the first mismatch.
"""

import random
import struct
import sys

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
CALLS = 2000  # random() calls, and randrange(B) calls per B, checked per seed


def words(rng: random.Random, count: int) -> tuple[int, ...]:
    """The next ``count`` 32-bit words of ``rng``, read as a chunk reads them."""
    return struct.unpack(f"<{count}I", rng.getrandbits(32 * count).to_bytes(4 * count, "little"))


def check(seed: int) -> str | None:
    calls = random.Random(seed)
    w = words(random.Random(seed), 2 * CALLS)
    for i in range(CALLS):
        want = ((w[2 * i] >> 5) * 67108864.0 + (w[2 * i + 1] >> 6)) * 2.0**-53
        if calls.random() != want:
            return f"random() call {i}"
    for B in range(1, 10):
        calls = random.Random(seed)
        # each value is below B with odds above 1/2: 4 * CALLS words are plenty
        shift = 32 - B.bit_length()
        below = [v for v in (x >> shift for x in words(random.Random(seed), 4 * CALLS)) if v < B]
        if len(below) < CALLS:
            return f"randrange({B}): only {len(below)} words below {B}"
        for i in range(CALLS):
            if calls.randrange(B) != below[i]:
                return f"randrange({B}) call {i}"
    return None


def main() -> int:
    for seed in SEEDS:
        if (bad := check(seed)) is not None:
            print(f"seed {seed}: {bad} differs from its word formula", file=sys.stderr)
            return 1
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"Python {version}: random() and randrange(1..9) match their word formulas "
          f"on seeds {', '.join(map(str, SEEDS))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
