"""Plain-text game format (.apg): line-oriented, UTF-8.

``#`` starts a comment line.  An optional ``vertices`` line declares names in
order; ``blue``/``red`` lines list one edge each.  Vertices used in an edge
but never declared are declared implicitly in first-appearance order.  The
serializer always emits the ``vertices`` line, then blue edges, then red
edges, each in canonical sorted order, so parse(serialize(g)) == g.
"""

from __future__ import annotations

from typing import Iterable, TextIO

from .core import Game, game_from_masks, mask_indices
from .errors import ApgParseError


def parse_game(text: str, source: str = "<string>") -> Game:
    index: dict[str, int] = {}  # each name's vertex, in declaration order
    blue: list[int] = []
    red: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        keyword, names = tokens[0], tokens[1:]
        if keyword == "vertices":
            for name in names:
                if name in index:
                    raise ApgParseError(source, lineno, f"vertex {name!r} declared twice")
                index[name] = len(index)
        elif keyword in ("blue", "red"):
            if not names:
                raise ApgParseError(source, lineno, f"empty {keyword} edge")
            mask = 0
            for name in names:
                mask |= 1 << index.setdefault(name, len(index))
            (blue if keyword == "blue" else red).append(mask)
        else:
            raise ApgParseError(source, lineno, f"unknown directive {keyword!r}")
    return game_from_masks(tuple(index), blue, red)


def load_game(path: str) -> Game:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_game(fh.read(), source=path)


def _check_name(name: str) -> str:
    if not name or any(c.isspace() for c in name):
        raise ValueError(f"vertex name {name!r} is empty or contains whitespace")
    return name


def _edge_lines(game: Game, masks: Iterable[int], color: str) -> list[str]:
    keyed = sorted(mask_indices(m) for m in masks)
    return [color + " " + " ".join(game.vertices[i] for i in idxs) for idxs in keyed]


def serialize_game(game: Game) -> str:
    names = " ".join(game.vertices)
    if names.split() != list(game.vertices):  # some name is empty or has whitespace
        for v in game.vertices:
            _check_name(v)
    lines = ["vertices " + names if names else "vertices"]
    lines += _edge_lines(game, game.blue, "blue")
    lines += _edge_lines(game, game.red, "red")
    return "\n".join(lines) + "\n"


def save_game(game: Game, path_or_file: str | TextIO) -> None:
    text = serialize_game(game)
    if isinstance(path_or_file, (str, bytes)):
        with open(path_or_file, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        path_or_file.write(text)
