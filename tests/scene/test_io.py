"""OBJ import/export tests."""

import numpy as np
import pytest

from repro.errors import SceneError
from repro.scene.generators import box_mesh
from repro.scene.io import load_obj, save_obj
from repro.scene.scene import Scene

SIMPLE_OBJ = """\
# a single triangle
v 0 0 0
v 1 0 0
v 0 1 0
f 1 2 3
"""

QUAD_OBJ = """\
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
f 1 2 3 4
"""


def write(tmp_path, text, name="scene.obj"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_single_triangle(tmp_path):
    scene = load_obj(write(tmp_path, SIMPLE_OBJ))
    assert scene.triangle_count == 1
    assert np.allclose(scene.triangle(0).b, [1, 0, 0])
    assert scene.name == "scene"


def test_quad_fan_triangulated(tmp_path):
    scene = load_obj(write(tmp_path, QUAD_OBJ))
    assert scene.triangle_count == 2


def test_negative_indices(tmp_path):
    text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n"
    scene = load_obj(write(tmp_path, text))
    assert scene.triangle_count == 1


def test_slash_forms(tmp_path):
    text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1 2/2/2 3//3\n"
    scene = load_obj(write(tmp_path, text))
    assert scene.triangle_count == 1


def test_comments_and_blank_lines_skipped(tmp_path):
    text = "\n# comment\n" + SIMPLE_OBJ + "\n\n"
    assert load_obj(write(tmp_path, text)).triangle_count == 1


def test_custom_name(tmp_path):
    scene = load_obj(write(tmp_path, SIMPLE_OBJ), name="CUSTOM")
    assert scene.name == "CUSTOM"


def test_out_of_range_index_raises(tmp_path):
    text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\n"
    with pytest.raises(SceneError):
        load_obj(write(tmp_path, text))


def test_zero_index_raises(tmp_path):
    text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n"
    with pytest.raises(SceneError):
        load_obj(write(tmp_path, text))


def test_bad_index_raises(tmp_path):
    text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf a b c\n"
    with pytest.raises(SceneError):
        load_obj(write(tmp_path, text))


def test_short_face_raises(tmp_path):
    text = "v 0 0 0\nv 1 0 0\nf 1 2\n"
    with pytest.raises(SceneError):
        load_obj(write(tmp_path, text))


def test_short_vertex_raises(tmp_path):
    with pytest.raises(SceneError):
        load_obj(write(tmp_path, "v 0 0\n"))


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_coordinate_raises(tmp_path, value):
    text = f"v 0 0 0\nv 1 {value} 0\nv 0 1 0\nf 1 2 3\n"
    with pytest.raises(SceneError, match=r"scene\.obj:2: non-finite"):
        load_obj(write(tmp_path, text))


def test_empty_file_raises(tmp_path):
    with pytest.raises(SceneError):
        load_obj(write(tmp_path, "# nothing\n"))


def test_roundtrip(tmp_path):
    original = Scene("box", box_mesh((0, 0, 0), (2, 2, 2)))
    path = save_obj(original, tmp_path / "box.obj")
    loaded = load_obj(path)
    assert loaded.triangle_count == original.triangle_count
    assert np.allclose(
        np.sort(loaded.vertices.reshape(-1, 3), axis=0),
        np.sort(original.vertices.reshape(-1, 3), axis=0),
    )


def test_roundtrip_through_bvh(tmp_path):
    """An imported scene must work through the whole pipeline."""
    from repro.bvh.api import build_bvh
    from repro.bvh.validate import validate_wide

    original = Scene("box", box_mesh((0, 0, 0), (2, 2, 2)))
    loaded = load_obj(save_obj(original, tmp_path / "box.obj"))
    bvh = build_bvh(loaded)
    validate_wide(bvh)
