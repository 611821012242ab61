"""Plain-text game format (.apg): line-oriented, UTF-8.

``#`` starts a comment line.  An optional ``vertices`` line declares names in
order; ``blue``/``red`` lines list one edge each.  Vertices used in an edge
but never declared are declared implicitly in first-appearance order.  The
serializer always emits the ``vertices`` line, then blue edges, then red
edges, each in canonical sorted order, so parse(serialize(g)) == g.
"""

from __future__ import annotations

from typing import Iterable, TextIO

from .core import Game, mask_indices, new_game
from .errors import ApgParseError


def parse_game(text: str, source: str = "<string>") -> Game:
    vertices: list[str] = []
    seen: set[str] = set()
    blue: list[list[str]] = []
    red: list[list[str]] = []

    def declare(name: str) -> None:
        if name not in seen:
            seen.add(name)
            vertices.append(name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        keyword, names = tokens[0], tokens[1:]
        if keyword == "vertices":
            for name in names:
                if name in seen:
                    raise ApgParseError(source, lineno, f"vertex {name!r} declared twice")
                declare(name)
        elif keyword in ("blue", "red"):
            if not names:
                raise ApgParseError(source, lineno, f"empty {keyword} edge")
            for name in names:
                declare(name)
            (blue if keyword == "blue" else red).append(names)
        else:
            raise ApgParseError(source, lineno, f"unknown directive {keyword!r}")
    return new_game(vertices, blue, red)


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
    for v in game.vertices:
        _check_name(v)
    lines = ["vertices " + " ".join(game.vertices) if game.vertices else "vertices"]
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
