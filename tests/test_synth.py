import hashlib
import math

import numpy as np
import pytest

from xpr.cli import EXIT_OK, main
from xpr.config import Config, make_rng
from xpr.core import yaw_rotation
from xpr.projection import frustum_window
from xpr.synth import (ALIAS_SWAP, GROUND_SIDE, PALETTE, SENSOR_HEIGHT,
                       anchor_pose, canonical_cloud, generate_world,
                       make_query, place_primitives, query_pose, sample_cloud)

CFG = Config()
#: sha256 of the "<path> <sha256>" lines of every file but the manifest of an
#: aliased, noisy `xpr synth` dataset, as the per-point box sampler wrote it
ALIASED_DATASET = "1da3feb511e7161943e7afda14323120879ac70396790a38f6679bbb774fd34d"


def test_world_layout_spacing():
    world = generate_world(9, 123, CFG)
    assert len(world.places) == 9
    assert np.array_equal(world.places[0].position, np.zeros(3))
    pos = np.array([p.position for p in world.places])
    d = np.linalg.norm(pos[:, None, :2] - pos[None, :, :2], axis=-1)
    d[np.eye(9, dtype=bool)] = np.inf
    # any two places are far apart relative to the match threshold
    assert d.min() > 4.0 * CFG.match_threshold_m


def test_world_seed_determinism():
    a = generate_world(5, 9, CFG)
    b = generate_world(5, 9, CFG)
    c = generate_world(5, 10, CFG)
    for pa, pb in zip(a.places, b.places):
        assert np.array_equal(pa.position, pb.position)
        assert pa.scene_seed == pb.scene_seed
    assert any(not np.array_equal(pa.position, pc.position)
               for pa, pc in zip(a.places, c.places) if pa.place_id)


def test_world_rejects_empty():
    with pytest.raises(ValueError):
        generate_world(0, 1, CFG)


def test_aliased_pairs_share_geometry_and_swap_classes():
    world = generate_world(4, 5, CFG, aliased_pairs=True)
    a, b = world.places[0], world.places[1]
    assert a.scene_seed == b.scene_seed
    assert not a.swap_classes and b.swap_classes
    pa, pb = place_primitives(a), place_primitives(b)
    assert len(pa) == len(pb)
    for qa, qb in zip(pa, pb):
        assert qa.kind == qb.kind
        # same footprint relative to the place center
        assert np.allclose(qa.center - a.position, qb.center - b.position)
        assert np.array_equal(qa.size, qb.size)
        assert qb.cls == ALIAS_SWAP.get(qa.cls, qa.cls)


def test_unaliased_places_differ():
    world = generate_world(2, 5, CFG)
    pa = place_primitives(world.places[0])
    pb = place_primitives(world.places[1])
    assert (len(pa) != len(pb)
            or any(not np.allclose(qa.center - world.places[0].position,
                                   qb.center - world.places[1].position)
                   for qa, qb in zip(pa, pb)))


def test_sample_counts_follow_area_density():
    world = generate_world(1, 3, CFG)
    density = 2.0
    prims = place_primitives(world.places[0])
    cloud = sample_cloud(world, 0, density, make_rng(1, 1))
    expect = sum(int(round(p.area() * density)) for p in prims)
    assert cloud.count == expect
    # per-class counts match the per-primitive allotment
    for cls in set(p.cls for p in prims):
        n_cls = sum(int(round(p.area() * density)) for p in prims if p.cls == cls)
        assert int((cloud.labels == cls).sum()) == n_cls


def test_no_primitive_is_larger_than_the_ground():
    """The ground's area bounds every primitive's, which `xpr synth` relies
    on to reject a density that gives a place infinitely many points."""
    world = generate_world(50, 3, CFG, aliased_pairs=True)
    for p in world.places:
        areas = [prim.area() for prim in place_primitives(p)]
        assert areas[0] == max(areas) == GROUND_SIDE ** 2


def test_sample_zero_density_empty():
    world = generate_world(1, 3, CFG)
    assert sample_cloud(world, 0, 0.0, make_rng(1, 1)).count == 0


def test_points_lie_on_primitives():
    world = generate_world(1, 11, CFG)
    cloud = sample_cloud(world, 0, 1.0, make_rng(2, 1))
    prims = place_primitives(world.places[0])
    from xpr.synth import CLASS_TREE
    trees = [p for p in prims if p.cls == CLASS_TREE]
    pts = cloud.points[cloud.labels == CLASS_TREE]
    # every tree point sits on some tree cylinder's lateral surface
    for pt in pts[:50]:
        on = False
        for t in trees:
            r = math.hypot(pt[0] - t.center[0], pt[1] - t.center[1])
            if abs(r - t.size[0]) < 1e-9 and -1e-9 <= pt[2] <= t.size[1] + 1e-9:
                on = True
                break
        assert on


def test_canonical_cloud_reproducible():
    world = generate_world(2, 21, CFG, density=1.0)
    a = canonical_cloud(world, 1)
    b = canonical_cloud(world, 1)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)


def test_poses_at_sensor_height():
    world = generate_world(2, 4, CFG)
    ap = anchor_pose(world, 1)
    assert ap.translation[2] == SENSOR_HEIGHT
    assert np.array_equal(ap.rotation, np.eye(3))
    qp = query_pose(world, 1, math.pi / 3)
    assert qp.translation[2] == SENSOR_HEIGHT
    assert np.allclose(qp.rotation, yaw_rotation(math.pi / 3), atol=1e-12)


def test_query_heading_wraps():
    world = generate_world(1, 4, CFG)
    a = query_pose(world, 0, 0.0)
    b = query_pose(world, 0, 2 * math.pi)
    assert np.array_equal(a.rotation, b.rotation)


def test_make_query_shape_and_mask():
    world = generate_world(1, 30, CFG, density=2.0)
    obs, gt = make_query(world, 0, 0.3, 0.0, make_rng(3, 1), CFG)
    _, width = frustum_window(CFG.range_cols)
    assert obs.raw.shape == (CFG.range_rows, width, 7)
    assert obs.mask.any()
    assert not obs.raw[~obs.mask].any()
    assert np.array_equal(gt, world.places[0].position)
    # noiseless appearance equals the class palette exactly
    lab = obs.gt_labels
    assert np.allclose(obs.raw[obs.mask][:, 4:7], PALETTE[lab[obs.mask]])


def test_make_query_noise_seeded():
    world = generate_world(1, 30, CFG, density=2.0)
    a, _ = make_query(world, 0, 1.0, 0.3, make_rng(4, 1), CFG)
    b, _ = make_query(world, 0, 1.0, 0.3, make_rng(4, 1), CFG)
    c, _ = make_query(world, 0, 1.0, 0.3, make_rng(5, 1), CFG)
    assert np.array_equal(a.raw, b.raw)
    assert not np.array_equal(a.raw, c.raw)
    # geometry channels are noise-free
    assert np.array_equal(a.raw[..., :4], c.raw[..., :4])


def test_palette_fixed_and_void_black():
    assert PALETTE.shape == (64, 3)
    assert not PALETTE[0].any()
    assert (PALETTE[1:] >= 0.15).all() and (PALETTE[1:] <= 0.85).all()


def test_aliased_noisy_dataset_bytes_are_pinned(tmp_path):
    assert main(["synth", "--places", "4", "--density", "1.0", "--seed", "7",
                 "--aliased", "--noise", "0.3", "--queries-per-place", "2",
                 "--out", str(tmp_path)]) == EXIT_OK
    files = sorted(p for p in tmp_path.rglob("*")
                   if p.is_file() and not p.name.endswith(".manifest.json"))
    listing = "".join(f"{p.relative_to(tmp_path).as_posix()} "
                      f"{hashlib.sha256(p.read_bytes()).hexdigest()}\n"
                      for p in files)
    assert hashlib.sha256(listing.encode()).hexdigest() == ALIASED_DATASET
