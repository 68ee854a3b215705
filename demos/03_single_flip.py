"""The flip move, site by site.

Where two chords land on four consecutive circle slots (P at i and j,
Q right after it at i+1 and j+1), the arc between the pattern's two
halves can be reversed.  That is a flip.  This demo lists every flip
site of the pentagram word, applies the first one, and shows that the
result is the other realizable word of demo 01.  It then walks the whole
flip orbit: every member is realizable.
"""

from gaussflip import apply_flip, canonical_form, flip_orbit, flip_sites, parse_word

d = parse_word("ADBECADBEC")
sites = flip_sites(d)
print(f"{d.word()} has {len(sites)} flip sites:")
for site in sites:
    result = apply_flip(d, site)
    print(
        f"  P={site.chord_p} Q={site.chord_q} at slots"
        f" {site.positions(d.n)}  ->  {result.word()}"
    )
print()

first = apply_flip(d, sites[0])
other = parse_word("ACDECABDEB")
print(f"flip at (i={sites[0].i}, j={sites[0].j}) gives {first.word()}")
print(f"canonical form {canonical_form(first)}")
print(f"the second realizable word canonicalizes to {canonical_form(other)}")
print()

orbit = flip_orbit(d)
print("flip orbit of the pentagram word:")
for word, realizable in orbit.members:
    print(f"  {word}  {'realizable' if realizable else 'unrealizable'}")
print(f"homogeneous verdicts: {orbit.homogeneous()}")
