"""Scene import/export: Wavefront OBJ (triangles only) and PPM images.

The benchmark suite is procedural, but users with real assets (including
the actual Lumibench scenes) can load them through :func:`load_obj`; faces
with more than three vertices are fan-triangulated.  Only geometry is
read — materials, normals and texture coordinates are ignored, since the
simulator consumes pure triangle soup.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import List

import numpy as np

from repro.errors import SceneError
from repro.scene.scene import Scene


def load_obj(path, name: str = "") -> Scene:
    """Load a Wavefront OBJ file as a :class:`Scene`.

    Supports ``v`` and ``f`` records; face indices may be 1-based,
    negative (relative), and in ``v``, ``v/vt``, ``v//vn`` or ``v/vt/vn``
    form.  Raises :class:`SceneError` on malformed input.
    """
    path = Path(path)
    vertices: List[List[float]] = []
    triangles: List[List[List[float]]] = []
    with path.open() as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "v":
                if len(parts) < 4:
                    raise SceneError(
                        f"{path}:{line_number}: vertex needs 3 coordinates"
                    )
                coords = [float(c) for c in parts[1:4]]
                if not all(math.isfinite(c) for c in coords):
                    raise SceneError(
                        f"{path}:{line_number}: non-finite vertex coordinate"
                    )
                vertices.append(coords)
            elif parts[0] == "f":
                if len(parts) < 4:
                    raise SceneError(
                        f"{path}:{line_number}: face needs at least 3 vertices"
                    )
                corner_ids = [
                    _resolve_index(token, len(vertices), path, line_number)
                    for token in parts[1:]
                ]
                corners = [vertices[i] for i in corner_ids]
                # Fan triangulation for quads/ngons.
                for second, third in zip(corners[1:], corners[2:]):
                    triangles.append([corners[0], second, third])
    if not triangles:
        raise SceneError(f"{path}: no faces found")
    return Scene(
        name=name or path.stem,
        vertices=np.asarray(triangles, dtype=np.float64),
    )


def _resolve_index(token: str, vertex_count: int, path, line_number: int) -> int:
    index_text = token.split("/")[0]
    try:
        index = int(index_text)
    except ValueError:
        raise SceneError(
            f"{path}:{line_number}: bad face index {token!r}"
        ) from None
    if index > 0:
        resolved = index - 1
    elif index < 0:
        resolved = vertex_count + index
    else:
        raise SceneError(f"{path}:{line_number}: face index 0 is invalid")
    if not 0 <= resolved < vertex_count:
        raise SceneError(
            f"{path}:{line_number}: face references vertex {index}, "
            f"but only {vertex_count} are defined"
        )
    return resolved


def save_obj(scene: Scene, path) -> Path:
    """Write a scene as an OBJ file (one ``v``/``f`` soup; no sharing)."""
    path = Path(path)
    lines: List[str] = [f"# exported by repro: scene {scene.name}"]
    for tri in scene.vertices:
        for vertex in tri:
            lines.append(f"v {vertex[0]:.9g} {vertex[1]:.9g} {vertex[2]:.9g}")
    for i in range(scene.triangle_count):
        base = 3 * i
        lines.append(f"f {base + 1} {base + 2} {base + 3}")
    path.write_text("\n".join(lines) + "\n")
    return path
