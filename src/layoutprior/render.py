"""Standalone SVG rendering of a layout's labeled boxes."""

from __future__ import annotations

import hashlib

from .core import LayoutDocument
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


def render_layout_svg(layout: LayoutDocument, corpus: Corpus) -> str:
    names = corpus.vocabulary.names
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{layout.width:g}" height="{layout.height:g}" '
        f'viewBox="0 0 {layout.width:g} {layout.height:g}">',
        f'<rect x="0" y="0" width="{layout.width:g}" '
        f'height="{layout.height:g}" fill="#ffffff" stroke="#000000"/>',
    ]
    for comp in layout.components:
        b = comp.bbox
        name = names[comp.class_id]
        color = class_color(name)
        lines.append(
            f'<rect x="{b.x1:g}" y="{b.y1:g}" width="{b.x2 - b.x1:g}" '
            f'height="{b.y2 - b.y1:g}" fill="{color}" fill-opacity="0.3" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        label = name if comp.score is None else f"{name} {comp.score:.2f}"
        # Escaped by hand: xml.sax.saxutils imports urllib.request and
        # ssl, about 3 MB of resident memory in every CLI process.
        label = (label.replace("&", "&amp;").replace("<", "&lt;")
                 .replace(">", "&gt;"))
        lines.append(
            f'<text x="{b.x1 + 2:g}" y="{b.y1 + 12:g}" font-size="11" '
            f'font-family="sans-serif" fill="{color}">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
