"""Text format round-trips and diagnostics."""

import random
import re

import pytest

from apg import ApgParseError, butterfly, new_game, parse_game, serialize_game
from apg.gadgets import random_game


def test_parse_minimal():
    g = parse_game("vertices a\nblue a\n")
    assert g.vertices == ("a",)
    assert g.blue_edges == frozenset({frozenset({"a"})})


def test_parse_implicit_declaration_order():
    g = parse_game("blue b a\nred c a\n")
    assert g.vertices == ("b", "a", "c")


def test_parse_comments_and_blanks():
    text = "# a butterfly\n\nvertices a b\n# edge\nblue a b\n"
    g = parse_game(text)
    assert g.n == 2 and len(g.blue) == 1


def test_parse_rejects_unknown_directive():
    with pytest.raises(ApgParseError) as exc:
        parse_game("bluee a b\n", source="bad.apg")
    assert "bad.apg:1" in str(exc.value)


def test_parse_rejects_empty_edge():
    with pytest.raises(ApgParseError):
        parse_game("blue\n")
    with pytest.raises(ApgParseError, match="empty red edge") as exc:
        parse_game("# c\nblue a\nred\n")
    assert exc.value.line == 3


def test_parse_rejects_duplicate_declaration():
    with pytest.raises(ApgParseError):
        parse_game("vertices a a\n")
    # a is declared by its edge on line 1, so line 2 declares it again
    with pytest.raises(ApgParseError, match="vertex 'a' declared twice") as exc:
        parse_game("blue a b\nvertices a\n")
    assert exc.value.line == 2


def test_roundtrip_butterfly():
    g = butterfly()
    assert parse_game(serialize_game(g)) == g


def test_roundtrip_empty_game():
    g = new_game([], [], [])
    assert parse_game(serialize_game(g)) == g


def test_roundtrip_random_games():
    rng = random.Random(11)
    for _ in range(200):
        g = random_game(rng, max_vertices=7, max_edge_size=4)
        assert parse_game(serialize_game(g)) == g


def test_serializer_rejects_bad_names():
    g = new_game(["a b"], [], [])
    with pytest.raises(ValueError):
        serialize_game(g)


def test_serializer_rejects_exactly_the_names_with_whitespace():
    # Names from letters, Unicode whitespace (no-break space, file
    # separator, line separator, next line) and a zero-width space, which
    # is not whitespace; the empty name too.  The serializer must refuse
    # exactly the names that are empty or hold a whitespace character,
    # naming the first such vertex, and round-trip every other game.
    rng = random.Random(13)
    alphabet = ["a", "b", "\xe9", "\u200b", "\xa0", "\x1c", "\u2028", "\x85"]
    weights = [8, 8, 8, 8, 1, 1, 1, 1]
    refused = 0
    for _ in range(600):
        names = list(dict.fromkeys(
            "".join(rng.choices(alphabet, weights, k=rng.choice((0,) + (1, 2, 3) * 5)))
            for _ in range(rng.randint(1, 5))))
        edges = [rng.sample(names, rng.randint(1, min(2, len(names)))) for _ in range(3)]
        g = new_game(names, edges[:2], edges[2:])
        bad = [v for v in names if not v or any(c.isspace() for c in v)]
        if bad:
            refused += 1
            with pytest.raises(ValueError, match=re.escape(repr(bad[0]))):
                serialize_game(g)
        else:
            assert parse_game(serialize_game(g)) == g
    assert 150 < refused < 450, refused


def test_serializer_is_canonical():
    g1 = new_game(["a", "b", "c"], [["c", "a"], ["b", "a"]], [["c", "b"]])
    g2 = new_game(["a", "b", "c"], [["a", "b"], ["a", "c"]], [["b", "c"]])
    assert serialize_game(g1) == serialize_game(g2)
