"""SVG rendering of BEV lane maps: groundtruth on the left, predictions on
the right, color-coded by class, with metric axes over the BEV extent."""

from __future__ import annotations

import xml.etree.ElementTree as ET

from .dataset import X_MAX, X_MIN, Y_MAX, Y_MIN

CLASS_COLORS = {1: "#2a9d2a", 2: "#e07b20"}  # lane green, crosswalk orange
SCORE_THRESHOLD = 0.3
PANEL_PX = 280
MARGIN_PX = 44


class _Panel:
    """Maps ego-frame meters into one SVG panel (x forward = up, y left = left)."""

    def __init__(self, x0_px, extent, size_px=PANEL_PX):
        self.x0_px = x0_px
        self.x_min, self.x_max, self.y_min, self.y_max = extent
        self.w_px = size_px
        self.h_px = size_px * (self.x_max - self.x_min) / (self.y_max - self.y_min)

    def to_px(self, x, y):
        u = (self.y_max - y) / (self.y_max - self.y_min)
        v = (self.x_max - x) / (self.x_max - self.x_min)
        return self.x0_px + u * self.w_px, MARGIN_PX + v * self.h_px


def _polyline(panel, pts, color, width, dash=None):
    coords = " ".join("%.2f,%.2f" % panel.to_px(x, y) for x, y in pts)
    d = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{d}/>')


def _panel_svg(panel, segments, title):
    parts = [f'<rect x="{panel.x0_px}" y="{MARGIN_PX}" width="{panel.w_px}" '
             f'height="{panel.h_px:.1f}" fill="#f8f8f8" stroke="#444"/>']
    parts.append(f'<text x="{panel.x0_px + panel.w_px / 2:.1f}" y="{MARGIN_PX - 24}" '
                 f'text-anchor="middle" font-size="13">{title}</text>')
    # metric axis labels at the panel corners
    for x, y, anchor, label in (
            (panel.x_min, panel.y_max, "start", f"({panel.x_min:g}, {panel.y_max:g}) m"),
            (panel.x_max, panel.y_min, "end", f"({panel.x_max:g}, {panel.y_min:g}) m")):
        px, py = panel.to_px(x, y)
        off = 12 if x == panel.x_min else -4
        parts.append(f'<text x="{px:.1f}" y="{py + off:.1f}" text-anchor="{anchor}" '
                     f'font-size="9" fill="#666">{label}</text>')
    for seg in segments:
        color = CLASS_COLORS.get(seg.class_id, "#999")
        parts.append(_polyline(panel, seg.centerline, color, 2))
        parts.append(_polyline(panel, seg.left_boundary, color, 1, dash="4 3"))
        parts.append(_polyline(panel, seg.right_boundary, color, 1, dash="4 3"))
    return parts


def render_frame_svg(gt_segments, pred_segments=None, extent=(X_MIN, X_MAX, Y_MIN, Y_MAX),
                     score_threshold=SCORE_THRESHOLD) -> str:
    """Side-by-side SVG document; pred_segments=None renders only the left panel."""
    left = _Panel(MARGIN_PX, extent)
    panels = _panel_svg(left, gt_segments, "groundtruth")
    total_w = MARGIN_PX * 2 + PANEL_PX
    if pred_segments is not None:
        right = _Panel(MARGIN_PX * 2 + PANEL_PX, extent)
        shown = [s for s in pred_segments
                 if s.class_id != 0 and s.score >= score_threshold]
        panels += _panel_svg(right, shown, "prediction (score &#8805; %.1f)" % score_threshold)
        total_w += MARGIN_PX + PANEL_PX
    total_h = 2 * MARGIN_PX + left.h_px
    body = "\n".join(panels)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" '
            f'height="{total_h:.1f}">\n{body}\n</svg>\n')


def validate_svg(text: str):
    """Raises xml.etree.ElementTree.ParseError if not well-formed."""
    ET.fromstring(text)
