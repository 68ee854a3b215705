"""Two realizable words, two genuinely different curves.

A realizable word can close up into a plane curve in more than one way.
This demo realizes both realizable words of demo 01, prints the face
structure of each embedding, and compares canonical curve codes.  The
code sets are disjoint: no sphere homeomorphism carries one curve to the
other, even though both words ride the same cubic graph.
"""

from gaussflip import curve_code, parse_word, realize_all

for word in ("ADBECADBEC", "ACDECABDEB"):
    d = parse_word(word)
    reports = realize_all(d)
    distinct = {curve_code(r).text for r in reports}
    print(f"{word}: {len(reports)} planar embedding(s) of {2 ** d.n} systems")
    print(f"  the two embeddings are mirror images, {len(distinct)} curve code(s)")
    report = reports[0]
    faces = ",".join(str(x) for x in report.face_degrees())
    print(f"  faces [{faces}]  code {curve_code(report).text}")
    for face in report.faces:
        print("    " + " ".join(report.dart_name(x) for x in face))
    print()

codes = {
    word: {curve_code(r).text for r in realize_all(parse_word(word))}
    for word in ("ADBECADBEC", "ACDECABDEB")
}
overlap = set.intersection(*codes.values())
print(f"shared curve codes: {sorted(overlap) or 'none'}")
print("The pentagram's five 2-gon petals against the mixed 2,3,4 faces:")
print("different curves, same graph.")
