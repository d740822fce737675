import numpy as np
import pytest

from xpr.aggregation import GlobalDescriptor
from xpr.config import Config, make_rng
from xpr.matching import (MapIndex, _overlaps, geometric_similarity,
                          match_query, recall_at_k, semantic_overlap)
from xpr.projection import SemanticImage, frustum_window
from xpr.selfcheck import iou_reference

CFG = Config()


def unit(v):
    v = np.asarray(v, dtype=float)
    return GlobalDescriptor(v / np.linalg.norm(v))


def test_cosine_of_identical_descriptors():
    d = unit(make_rng(1, 1).normal(size=16))
    assert geometric_similarity(d, d) == pytest.approx(1.0, abs=1e-12)


def test_cosine_of_orthogonal_descriptors():
    a = unit([1.0, 0.0, 0.0])
    b = unit([0.0, 1.0, 0.0])
    assert geometric_similarity(a, b) == 0.0
    assert geometric_similarity(a, unit([-1.0, 0.0, 0.0])) == -1.0


def test_flagged_descriptor_scores_zero():
    zero = GlobalDescriptor(np.zeros(4), flagged=True)
    assert geometric_similarity(zero, unit([1, 0, 0, 0])) == 0.0
    assert geometric_similarity(unit([1, 0, 0, 0]), zero) == 0.0


def test_frustum_window_quarter():
    c0, width = frustum_window(180)
    assert width == 45 and c0 == (180 - 45) // 2


def test_overlap_identical_images():
    rng = make_rng(2, 1)
    labels = rng.integers(1, 8, (4, 45)).astype(np.uint16)
    q = SemanticImage(labels)
    assert semantic_overlap(q, SemanticImage(labels.copy()), CFG) == 1.0


def test_overlap_worked_example():
    # one class covers a 16-cell patch in the query and a 48-cell patch in
    # the window around it: IoU = 16/48 = 1/3
    q = np.zeros((8, 45), dtype=np.uint16)
    c = np.zeros((8, 45), dtype=np.uint16)
    q[0:4, 0:4] = 3
    c[0:6, 0:8] = 3
    got = semantic_overlap(SemanticImage(q), SemanticImage(c), CFG)
    assert got == pytest.approx(1.0 / 3.0, abs=1e-12)
    # np.float64 subclasses float, and its repr is not a number on numpy 2
    assert type(got) is float


def test_overlap_no_covisible_cells_zero():
    q = np.zeros((3, 45), dtype=np.uint16)
    c = np.zeros((3, 45), dtype=np.uint16)
    q[0, 0] = 1  # candidate unlabeled there
    assert semantic_overlap(SemanticImage(q), SemanticImage(c), CFG) == 0.0


def test_overlap_against_loop_oracle():
    worst = 0.0
    for i in range(50):
        rng = make_rng(3, i)
        q = rng.integers(0, 8, (6, 45)).astype(np.uint16)
        c = rng.integers(0, 8, (6, 45)).astype(np.uint16)
        got = semantic_overlap(SemanticImage(q), SemanticImage(c), CFG)
        worst = max(worst, abs(got - iou_reference(q, c, CFG.n_classes)))
    assert worst < 1e-12


def test_overlap_crops_candidate_to_window():
    rng = make_rng(4, 1)
    q = rng.integers(1, 8, (6, 45)).astype(np.uint16)
    full = rng.integers(1, 8, (6, 180)).astype(np.uint16)
    c0, width = frustum_window(180)
    full[:, c0:c0 + width] = q  # perfect agreement inside the window only
    assert semantic_overlap(SemanticImage(q), SemanticImage(full), CFG) == 1.0


def test_overlap_wrong_query_width_rejected():
    q = SemanticImage(np.ones((4, 30), dtype=np.uint16))
    c = SemanticImage(np.ones((4, 180), dtype=np.uint16))
    with pytest.raises(ValueError, match="window"):
        semantic_overlap(q, c, CFG)


def small_index(descs, sems, cfg):
    """One place per row of the parallel nested lists, 10 m apart along x,
    one viewpoint per item. Each label image becomes the frontal window of a
    360-degree image that is void elsewhere."""
    c0, width = frustum_window(cfg.range_cols)
    flat = [s.labels for ss in sems for s in ss]
    labels = np.zeros((len(flat), cfg.range_rows, cfg.range_cols), np.uint16)
    labels[:, :, c0:c0 + width] = flat
    return MapIndex([(pid, np.array([10.0 * pid, 0.0, 0.0]))
                     for pid in range(len(descs))],
                    [d.values for dd in descs for d in dd], labels, cfg)


def test_hybrid_mixes_components():
    cfg = Config(alpha=0.7, beta=0.3, n_viewpoints=1, range_rows=4,
                 descriptor_dim=8)
    rng = make_rng(5, 1)
    q = rng.integers(1, 4, (4, 45)).astype(np.uint16)
    c = q.copy()
    c[:2] = 3  # psi strictly between 0 and 1
    res = match_query(unit(rng.normal(size=8)), SemanticImage(q),
                      small_index([[unit(rng.normal(size=8))]],
                                  [[SemanticImage(c)]], cfg), cfg)
    assert 0.0 < res.psi < 1.0 and res.phi != 0.0
    assert res.psi == semantic_overlap(SemanticImage(q), SemanticImage(c), cfg)
    assert res.score == 0.7 * res.phi + 0.3 * res.psi


def scalar_match(q_desc, q_sem, entries, cfg):
    """Per-entry loop: row dot product, scalar-loop IoU over the frontal
    window, best viewpoint per place, ties to the smaller place id then
    viewpoint. Returns (ranked, {place: (score, viewpoint, phi, psi)})."""
    best = {}
    for e in entries:
        c0, width = frustum_window(e.sem_image.cols)
        phi = float(q_desc.values @ e.descriptor.values)
        psi = iou_reference(q_sem.labels, e.sem_image.labels[:, c0:c0 + width],
                            cfg.n_classes)
        sim = cfg.alpha * phi + cfg.beta * psi
        cur = best.get(e.place_id)
        if cur is None or sim > cur[0] or (sim == cur[0] and e.viewpoint < cur[1]):
            best[e.place_id] = (sim, e.viewpoint, phi, psi)
    ranked = sorted(best, key=lambda pid: (-best[pid][0], pid))
    return [(pid, best[pid][0]) for pid in ranked], best


def test_match_query_bit_equal_to_scalar_reference():
    cfg = Config(n_viewpoints=4, descriptor_dim=16, range_rows=4, range_cols=48)
    rows, full = cfg.range_rows, cfg.range_cols
    c0, width = frustum_window(full)
    n_ties = 0
    for i in range(6):
        rng = make_rng(7, i)
        descs, labels = [], []
        for e in range(8 * cfg.n_viewpoints):
            if e and rng.random() < 0.25:
                # a copy of the previous entry forces an exact score tie
                descs.append(descs[-1])
                labels.append(labels[-1])
            else:
                d = rng.normal(size=cfg.descriptor_dim)
                descs.append(d / np.linalg.norm(d))
                lab = rng.integers(0, cfg.n_classes, (rows, full))
                lab[rng.random((rows, full)) < 0.3] = 0
                labels.append(lab)
        descs[3 * cfg.n_viewpoints + 1] = np.zeros(cfg.descriptor_dim)
        # place ids out of order in the place table
        places = [(pid, np.zeros(3)) for pid in (5, 2, 7, 0, 3, 6, 1, 4)]
        index = MapIndex(places, descs, labels, cfg)
        entries = index.entries
        assert entries[3 * cfg.n_viewpoints + 1].descriptor.flagged
        for j in range(3):
            d = rng.normal(size=cfg.descriptor_dim)
            q_desc = GlobalDescriptor(d / np.linalg.norm(d))
            q_sem = SemanticImage(rng.integers(0, cfg.n_classes, (rows, width))
                                  .astype(np.uint16))
            if j == 2:
                # the query itself copies an entry: exact phi and psi ties
                q_desc = entries[5].descriptor
                q_sem = SemanticImage(entries[5].sem_image.labels[:, c0:c0 + width]
                                      .astype(np.uint16))
            res = match_query(q_desc, q_sem, index, cfg)
            ranked, best = scalar_match(q_desc, q_sem, entries, cfg)
            assert res.ranked == ranked
            top = best[res.best_place_id]
            assert res.best_place_id == ranked[0][0]
            assert (res.score, res.best_viewpoint, res.phi, res.psi) == top
            scores = [s for _, s in ranked]
            n_ties += len(scores) - len(set(scores))
    assert n_ties > 0


def label_counts(windows: np.ndarray) -> np.ndarray:
    """(E, 256) cells of each uint8 label value per window row."""
    rows = np.arange(len(windows))[:, None] * 256
    return np.bincount((rows + windows).ravel(),
                       minlength=256 * len(windows)).reshape(-1, 256)


def onehot_overlaps(q: np.ndarray, windows: np.ndarray, counts: np.ndarray,
                    n_classes: int) -> np.ndarray:
    """Mean per-class IoU of the query labels against every window row.

    Classes 1..n_classes-1 present in the query or a window contribute an
    IoU term over all window cells, summed in ascending class order. A row
    with no co-visible labeled cell has no intersection in any class, so it
    scores exactly 0.0 without a separate test.
    """
    q = q.ravel()
    onehot = (q[:, None] == np.arange(n_classes)).astype(np.float32)
    # exact integer counts: a float32 sum of ones is exact below 2**24 cells
    inter = ((windows == q).astype(np.float32) @ onehot).astype(np.int64)
    union = onehot.sum(axis=0).astype(np.int64) + counts[:, :n_classes] - inter
    total = np.zeros(len(windows))
    n_cls = np.zeros(len(windows), dtype=np.int64)
    for cls in range(1, n_classes):
        present = union[:, cls] > 0
        total += np.where(present, inter[:, cls] / np.maximum(union[:, cls], 1),
                          0.0)
        n_cls += present
    return total / np.maximum(n_cls, 1)


def onehot_psi(q: np.ndarray, index: MapIndex) -> np.ndarray:
    """The one-hot GEMM psi of a query against every row of an index."""
    c0, width = frustum_window(index.config.range_cols)
    windows = index.labels[:, :, c0:c0 + width].reshape(len(index.labels), -1)
    return onehot_overlaps(q, windows, label_counts(windows),
                           index.config.n_classes)


# (range_rows, range_cols) whose frontal window holds that many cells: one
# bit, a word short by one, one word, a word and one bit, and W100's window
WINDOWS = {1: (1, 4), 63: (7, 36), 64: (8, 32), 65: (5, 52), 720: (16, 180)}


@pytest.mark.parametrize("n_classes", [2, 8, 40, 256])
@pytest.mark.parametrize("cells", sorted(WINDOWS))
def test_psi_bit_equal_across_words_and_class_counts(cells, n_classes):
    rows, cols = WINDOWS[cells]
    cfg = Config(n_classes=n_classes, n_viewpoints=2, range_rows=rows,
                 range_cols=cols, descriptor_dim=4, alpha=0.0, beta=1.0)
    c0, width = frustum_window(cols)
    assert rows * width == cells
    rng = make_rng(9, cells, n_classes)
    labels = rng.integers(0, n_classes, (6, rows, cols))
    labels[rng.random(labels.shape) < 0.3] = 0
    index = MapIndex([(pid, np.zeros(3)) for pid in range(3)],
                     rng.normal(size=(6, 4)), labels, cfg)
    for j in range(3):
        q = rng.integers(0, n_classes, (rows, width)).astype(np.uint16)
        if j == 2:
            q = labels[3, :, c0:c0 + width].astype(np.uint16)
        psi = _overlaps(q, index._planes, index._counts)
        assert np.array_equal(psi, onehot_psi(q, index))
        res = match_query(unit(rng.normal(size=4)), SemanticImage(q), index,
                          cfg)
        best = labels[2 * res.best_place_id + res.best_viewpoint]
        assert res.psi == psi.max()
        assert res.psi == iou_reference(q, best[:, c0:c0 + width], n_classes)


def test_psi_padding_bits_count_for_nothing():
    # 65 cells fill one word and one bit of a second
    cfg = Config(n_viewpoints=1, range_rows=5, range_cols=52, descriptor_dim=2)
    q = np.ones((5, 13), dtype=np.uint16)
    idx = small_index([[unit([1.0, 0.0])]], [[SemanticImage(q)]], cfg)
    assert idx._planes.shape == (2, cfg.n_classes - 1, 1)
    res = match_query(unit([1.0, 0.0]), SemanticImage(q.copy()), idx, cfg)
    assert res.psi == 1.0


def test_psi_ignores_query_labels_outside_the_classes():
    cfg = Config(n_viewpoints=1, range_rows=4, descriptor_dim=2)
    rng = make_rng(10, 1)
    c = rng.integers(0, cfg.n_classes, (4, 45)).astype(np.uint16)
    q = rng.integers(0, cfg.n_classes, (4, 45)).astype(np.uint16)
    q[0, :10] = cfg.n_classes
    q[1, :10] = 300
    clean = np.where(q < cfg.n_classes, q, 0).astype(np.uint16)
    d = unit([1.0, 0.0])
    idx = small_index([[d]], [[SemanticImage(c)]], cfg)
    got = match_query(d, SemanticImage(q), idx, cfg).psi
    assert 0.0 < got < 1.0
    assert got == match_query(d, SemanticImage(clean), idx, cfg).psi
    assert got == onehot_psi(q, idx)[0]


def test_psi_all_void_query_scores_zero_on_every_row():
    cfg = Config(n_viewpoints=2, range_rows=4, descriptor_dim=2)
    rng = make_rng(11, 1)
    d = unit([1.0, 0.0])
    sems = [[SemanticImage(rng.integers(0, cfg.n_classes, (4, 45))
                           .astype(np.uint16)) for _ in range(2)]
            for _ in range(3)]
    idx = small_index([[d, d]] * 3, sems, cfg)
    q = np.zeros((4, 45), dtype=np.uint16)
    assert np.array_equal(_overlaps(q, idx._planes, idx._counts), np.zeros(6))
    assert match_query(d, SemanticImage(q), idx, cfg).psi == 0.0


def test_match_query_picks_best_place_and_ranks_all():
    cfg = Config(n_viewpoints=2, range_rows=4, descriptor_dim=3)
    rng = make_rng(6, 1)
    q_desc = unit([1.0, 0.0, 0.0])
    sem = SemanticImage(rng.integers(1, 8, (4, 45)).astype(np.uint16))
    descs = [[unit([0.9, 0.1, 0.0]), unit([0.0, 1.0, 0.0])],
             [unit([1.0, 0.0, 0.0]), unit([0.5, 0.5, 0.0])],
             [unit([-1.0, 0.0, 0.0]), unit([0.0, 0.0, 1.0])]]
    sems = [[sem, sem], [sem, sem], [sem, sem]]
    res = match_query(q_desc, SemanticImage(sem.labels.copy()),
                      small_index(descs, sems, cfg), cfg, query_id=7)
    assert res.query_id == 7
    assert res.best_place_id == 1 and res.best_viewpoint == 0
    assert [pid for pid, _ in res.ranked] == [1, 0, 2]
    scores = [s for _, s in res.ranked]
    assert scores == sorted(scores, reverse=True)
    assert type(res.score) is float and type(res.psi) is float
    assert all(type(s) is float for s in scores)


def test_match_query_tie_prefers_smaller_ids():
    cfg = Config(n_viewpoints=2, range_rows=4, descriptor_dim=2)
    sem = SemanticImage(np.ones((4, 45), dtype=np.uint16))
    d = unit([1.0, 0.0])
    descs = [[d, d], [d, d]]
    sems = [[sem, sem], [sem, sem]]
    res = match_query(d, SemanticImage(sem.labels.copy()),
                      small_index(descs, sems, cfg), cfg)
    assert res.best_place_id == 0 and res.best_viewpoint == 0


def test_match_query_empty_index_rejected():
    with pytest.raises(ValueError, match="empty"):
        match_query(unit([1.0, 0.0]), SemanticImage(np.ones((2, 45), dtype=np.uint16)),
                    MapIndex([], np.zeros((0, CFG.descriptor_dim)),
                             np.zeros((0, CFG.range_rows, CFG.range_cols)), CFG),
                    CFG)


@pytest.mark.parametrize("shape, msg", [((4, 30), "window"),
                                        ((4, 180), "window"),
                                        ((3, 45), "row counts")])
def test_match_query_wrong_query_shape_rejected(shape, msg):
    cfg = Config(n_viewpoints=1, range_rows=4, descriptor_dim=2)
    sem = SemanticImage(np.ones((4, 45), dtype=np.uint16))
    idx = small_index([[unit([1.0, 0.0])]], [[sem]], cfg)
    with pytest.raises(ValueError, match=msg):
        match_query(unit([1.0, 0.0]), SemanticImage(np.ones(shape, np.uint16)),
                    idx, cfg)


def test_index_counts_viewpoints():
    cfg = Config(n_viewpoints=2, descriptor_dim=2, range_rows=2)
    with pytest.raises(ValueError, match=r"expected \(2, 2\)"):
        MapIndex([(0, np.zeros(3))], np.ones((1, 2)), np.ones((1, 2, 180)), cfg)


@pytest.mark.parametrize("defect", ["label", "place"])
def test_index_rejects_bad_labels_and_repeated_places(defect):
    cfg = Config(n_viewpoints=1, descriptor_dim=2, range_rows=2)
    labels = np.ones((2, 2, 180), dtype=np.uint16)
    places = [(0, np.zeros(3)), (1, np.zeros(3))]
    if defect == "label":
        labels[1, 0, 5] = cfg.n_classes
        msg = "n_classes"
    else:
        places[1] = (0, np.ones(3))
        msg = "duplicate place id"
    with pytest.raises(ValueError, match=msg):
        MapIndex(places, np.ones((2, 2)), labels, cfg)


def test_index_entries_view_the_blocks():
    cfg = Config(n_viewpoints=2, descriptor_dim=2, range_rows=2)
    rng = make_rng(8, 1)
    labels = rng.integers(0, cfg.n_classes, (4, 2, 180))
    descs = rng.normal(size=(4, 2))
    descs[2] = 0.0
    idx = MapIndex([(9, np.zeros(3)), (4, np.ones(3))], descs, labels, cfg)
    assert [(e.place_id, e.viewpoint) for e in idx.entries] == [
        (9, 0), (9, 1), (4, 0), (4, 1)]
    assert all(type(e.place_id) is int for e in idx.entries)
    assert [e.descriptor.flagged for e in idx.entries] == [False, False, True,
                                                           False]
    for e, d, lab in zip(idx.entries, descs, labels):
        # descriptors are held at float32 precision, as map.idx stores them
        assert np.array_equal(e.descriptor.values,
                              d.astype(np.float32).astype(np.float64))
        assert np.array_equal(e.sem_image.labels, lab)
    with pytest.raises(ValueError, match="read-only"):
        idx.entries[0].descriptor.values[0] = 1.0
    for block in (idx.descriptors, idx.labels, idx._planes, idx._counts,
                  idx.mean_histogram()):
        assert not block.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        idx._planes[0, 0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        idx._counts[0, 0] = 1


def test_mean_histogram_normalized():
    cfg = Config(n_viewpoints=1, range_rows=2, descriptor_dim=2)
    sem = SemanticImage(np.ones((2, 45), dtype=np.uint16))
    d = unit([1.0, 0.0])
    idx = small_index([[d]], [[sem]], cfg)
    h = idx.mean_histogram()
    assert h.sum() == pytest.approx(1.0, abs=1e-12)


class FakeResult:
    def __init__(self, qid, ranked):
        self.query_id = qid
        self.ranked = ranked


def test_recall_at_k_counting():
    cfg = Config(match_threshold_m=5.0, n_viewpoints=1, range_rows=2,
                 descriptor_dim=2)
    sem = SemanticImage(np.ones((2, 45), dtype=np.uint16))
    d = unit([1.0, 0.0])
    idx = small_index([[d], [d], [d]], [[sem], [sem], [sem]], cfg)
    gt = [(0, np.array([1.0, 0.0, 0.0])),     # near place 0
          (1, np.array([10.0, 3.0, 0.0])),    # near place 1
          (2, np.array([100.0, 0.0, 0.0]))]   # near nothing
    results = [FakeResult(0, [(0, 1.0), (1, 0.5), (2, 0.1)]),   # hit at rank 1
               FakeResult(1, [(0, 1.0), (1, 0.5), (2, 0.1)]),   # hit at rank 2
               FakeResult(2, [(0, 1.0), (1, 0.5), (2, 0.1)])]   # never
    assert recall_at_k(results, idx, gt, 1, cfg) == pytest.approx(100.0 / 3.0)
    assert recall_at_k(results, idx, gt, 2, cfg) == pytest.approx(200.0 / 3.0)
    assert recall_at_k(results, idx, gt, 3, cfg) == pytest.approx(200.0 / 3.0)


def test_recall_uses_horizontal_distance_only():
    cfg = Config(match_threshold_m=5.0, n_viewpoints=1, range_rows=2,
                 descriptor_dim=2)
    sem = SemanticImage(np.ones((2, 45), dtype=np.uint16))
    idx = small_index([[unit([1.0, 0.0])]], [[sem]], cfg)
    gt = [(0, np.array([0.0, 0.0, 50.0]))]  # large z offset is ignored
    results = [FakeResult(0, [(0, 1.0)])]
    assert recall_at_k(results, idx, gt, 1, cfg) == 100.0


def test_recall_empty_results():
    cfg = Config(n_viewpoints=1, range_rows=2, descriptor_dim=2)
    sem = SemanticImage(np.ones((2, 45), dtype=np.uint16))
    idx = small_index([[unit([1.0, 0.0])]], [[sem]], cfg)
    assert recall_at_k([], idx, [], 1, cfg) == 0.0
