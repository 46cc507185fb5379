"""Standalone SVG rendering of a layout's labeled boxes."""

from __future__ import annotations

import hashlib

from .ingest import Corpus

PALETTE = (
    "#e6194b", "#3cb44b", "#ffe119", "#4363d8", "#f58231", "#911eb4",
    "#46f0f0", "#f032e6", "#bcf60c", "#fabebe", "#008080", "#e6beff",
    "#9a6324", "#fffac8", "#800000", "#aaffc3", "#808000", "#ffd8b1",
    "#000075", "#808080",
)


def class_color(name: str) -> str:
    digest = hashlib.md5(name.encode("utf-8")).digest()
    return PALETTE[int.from_bytes(digest[:4], "big") % len(PALETTE)]


def render_layout_svg(corpus: Corpus, i: int) -> str:
    """The SVG of the layout at position `i` of `corpus`."""
    names = corpus.vocabulary.names
    w, h = corpus.widths.item(i), corpus.heights.item(i)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{w:g}" height="{h:g}" viewBox="0 0 {w:g} {h:g}">',
        f'<rect x="0" y="0" width="{w:g}" '
        f'height="{h:g}" fill="#ffffff" stroke="#000000"/>',
    ]
    a, b = corpus.offsets[i], corpus.offsets[i + 1]
    for (x1, y1, x2, y2), c, score, scored in zip(
            corpus.boxes[a:b].tolist(), corpus.class_id[a:b].tolist(),
            corpus.score[a:b].tolist(), corpus.scored[a:b].tolist()):
        name = names[c]
        color = class_color(name)
        lines.append(
            f'<rect x="{x1:g}" y="{y1:g}" width="{x2 - x1:g}" '
            f'height="{y2 - y1:g}" fill="{color}" fill-opacity="0.3" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        label = f"{name} {score:.2f}" if scored else name
        # Escaped by hand: xml.sax.saxutils imports urllib.request and
        # ssl, about 3 MB of resident memory in every CLI process.
        label = (label.replace("&", "&amp;").replace("<", "&lt;")
                 .replace(">", "&gt;"))
        lines.append(
            f'<text x="{x1 + 2:g}" y="{y1 + 12:g}" font-size="11" '
            f'font-family="sans-serif" fill="{color}">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
