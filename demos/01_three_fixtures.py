"""Three ten-slot words, one circle, two fates.

The words below all describe five chords on a circle.  The first cannot
be drawn as a closed curve in the plane; the other two can.  Run this to
see the library's verdicts side by side, with the parity screen and the
minimum genus for the word that fails.
"""

from gaussflip import (
    canonical_form,
    interlacement_graph,
    is_realizable,
    min_genus,
    parity_check,
    parse_word,
)

WORDS = ["AEBACBDCED", "ADBECADBEC", "ACDECABDEB"]

for word in WORDS:
    d = parse_word(word)
    inter = interlacement_graph(d)
    verdict = "realizable" if is_realizable(d) else "unrealizable"
    print(f"{word}")
    print(f"  canonical form   {canonical_form(d)}")
    print(f"  parity check     {'pass' if parity_check(d) else 'fail'}")
    degrees = " ".join(
        f"{v}:{deg}" for v, deg in zip(inter.vertices, inter.degrees)
    )
    print(f"  interlacement    {degrees}")
    print(f"  verdict          {verdict}, minimum genus {min_genus(d)}")
    print()

print("All three pass the parity screen; parity alone cannot tell them apart.")
print("The first word needs a torus, so no plane curve crosses that way.")
