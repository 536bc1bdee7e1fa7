"""Datasets: loading, normalization, splitting, synthesis, concatenation."""
from dataclasses import replace

import numpy as np
import pytest

from conftest import traced_peak

from softaug import (NormalizationSpec, TabularDataset, concat,
                     apply_normalizer, fit_normalizer, invert_normalizer,
                     load_csv, save_csv, split, synth_make)
from softaug.data import synth_truth
from softaug.errors import (BudgetError, CatalogError, ContractError, DataError,
                            ParseError, SchemaError, ShapeError)


def _toy(n=10, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return TabularDataset(rng.uniform(size=(n, d)), rng.uniform(size=n),
                          tuple(f"x{i+1}" for i in range(d)))


# ------------------------------------------------------------------ dataset

def test_dataset_validates_row_counts_and_columns():
    with pytest.raises(ShapeError):
        TabularDataset(np.zeros((3, 2)), np.zeros(4), ("a", "b"))
    with pytest.raises(SchemaError):
        TabularDataset(np.zeros((3, 2)), np.zeros(3), ("a",))


def test_dataset_rejects_non_finite():
    with pytest.raises(ContractError):
        TabularDataset(np.array([[np.nan, 1.0]]), np.zeros(1), ("a", "b"))
    with pytest.raises(ContractError):
        TabularDataset(np.ones((1, 2)), np.array([np.inf]), ("a", "b"))


def test_dataset_arrays_are_write_locked():
    ds = _toy()
    with pytest.raises(ValueError):
        ds.features[0, 0] = 5.0
    with pytest.raises(ValueError):
        ds.labels[0] = 5.0


def test_joint_and_take():
    ds = _toy(6, 2)
    joint = ds.joint()
    assert joint.shape == (6, 3)
    assert np.array_equal(joint[:, :2], ds.features)
    assert np.array_equal(joint[:, 2], ds.labels)
    sub = ds.take([4, 1])
    assert np.array_equal(sub.features, ds.features[[4, 1]])
    assert sub.columns == ds.columns


# ---------------------------------------------------------------------- csv

def test_csv_roundtrip(tmp_path):
    ds = _toy(8, 3, seed=5)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    text = path.read_text()
    assert text.startswith("# provenance=real rows=8")
    back = load_csv(path, "y")
    assert np.allclose(back.features, ds.features, atol=0, rtol=0)
    assert np.allclose(back.labels, ds.labels, atol=0, rtol=0)
    assert back.columns == ds.columns


def test_csv_column_names_with_commas_roundtrip(tmp_path):
    ds = TabularDataset(np.array([[1.5, -2.0], [0.25, 3.0]]), np.array([0.5, 1.0]),
                        ("flow, inlet", 'temp "C"'), label_name="y, out")
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    assert path.read_bytes().count(b"\n") == 4 and b"\r" not in path.read_bytes()
    back = load_csv(path, "y, out")
    assert back.columns == ds.columns and back.label_name == "y, out"
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


def test_load_csv_error_cases(tmp_path):
    p = tmp_path / "bad.csv"
    with pytest.raises(ParseError):
        load_csv(tmp_path / "absent.csv", "y")
    p.write_text("")
    with pytest.raises(SchemaError):
        load_csv(p, "y")
    p.write_text("a,b\n1,2\n")
    with pytest.raises(SchemaError, match="'y'"):
        load_csv(p, "y")
    # the label alone leaves no feature to learn from
    p.write_text("y\n1\n2\n")
    with pytest.raises(SchemaError, match="bad.csv: no feature column besides the label "
                                          "column 'y'"):
        load_csv(p, "y")
    p.write_text("a,y\n1\n")
    with pytest.raises(ParseError, match="row 2"):
        load_csv(p, "y")
    p.write_text("a,y\n1,\n")
    with pytest.raises(ParseError, match="row 2"):
        load_csv(p, "y")
    p.write_text("a,y\n1,zebra\n")
    with pytest.raises(ParseError, match="'y'"):
        load_csv(p, "y")
    p.write_text("a,y\n1,inf\n")
    with pytest.raises(ParseError):
        load_csv(p, "y")
    # a repeated name would turn the second label column into a feature
    p.write_text("a,y,y\n1,2,3\n")
    with pytest.raises(SchemaError, match="header repeats column\\(s\\) 'y'"):
        load_csv(p, "y")
    # finite cells whose max - min overflows, in a feature and the label
    p.write_text("a,b,y\n-1e308,0,-1.5e308\n1e308,1,1.5e308\n")
    with pytest.raises(DataError, match=r"column\(s\) a, y span more than the largest float"):
        load_csv(p, "y")
    p.write_bytes(b"a,y\n1,\xff\n")
    with pytest.raises(ParseError, match=r"bad.csv: not UTF-8 text \(invalid start byte 0xff\)"):
        load_csv(p, "y")
    # the csv module refuses a field over 131,072 characters; blank rows count as lines
    p.write_text("a,y\n1,2\n\n" + "1" * 200_000 + ",2\n")
    with pytest.raises(ParseError, match=r"bad.csv: line 4: field larger than field limit"):
        load_csv(p, "y")


def test_header_only_csv_roundtrips_as_zero_rows(tmp_path):
    p = tmp_path / "empty.csv"
    empty = TabularDataset(np.zeros((0, 2)), np.zeros(0), ("a", "b"), label_name="t",
                           provenance="generated")
    save_csv(empty, p)
    assert p.read_text().splitlines() == ["# provenance=generated rows=0", "a,b,t"]
    back = load_csv(p, "t")
    assert back.features.shape == (0, 2) and back.labels.shape == (0,)
    assert back.columns == ("a", "b") and back.label_name == "t"


def test_load_csv_drops_a_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with the bytes EF BB BF
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    for text in ("y,x1,x2\n0.5,1,2\n0.25,3,4\n", "x1,x2,y\n1,2,0.5\n3,4,0.25\n"):
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        want, got = load_csv(plain, "y"), load_csv(marked, "y")
        assert got.columns == want.columns == ("x1", "x2"), text
        assert np.array_equal(got.features, want.features)
        assert np.array_equal(got.labels, want.labels)


def test_load_csv_matches_float_of_every_cell(tmp_path):
    # comments, blank lines and a byte-order mark anywhere they may occur,
    # the label first and last, cells of every magnitude and spelling
    rng = np.random.default_rng(3)
    cells = rng.normal(size=(40, 4)) * 10.0 ** rng.integers(-300, 300, size=(40, 4))
    rows = [[f"{v:.17g}" for v in r] for r in cells]
    rows[0][1], rows[1][2], rows[2][0] = " 2.5 ", "1e-320", "-0"
    p = tmp_path / "t.csv"
    for label_at in (0, 3):
        names = ["x1", "x2", "x3"]
        names.insert(label_at, "y")
        lines = ["# provenance=real rows=40", "", ",".join(names)]
        for i, r in enumerate(rows):
            lines += [",".join(r)] + (["# note", ""] if i % 7 == 0 else [])
        p.write_bytes(b"\xef\xbb\xbf" + "\n".join(lines).encode() + b"\n")
        want = np.array([[float(c) for c in r] for r in rows])
        ds = load_csv(p, "y")
        assert ds.columns == ("x1", "x2", "x3")
        assert np.delete(want, label_at, axis=1).tobytes() == ds.features.tobytes()
        assert want[:, label_at].tobytes() == ds.labels.tobytes()


def test_load_csv_peak_memory_stays_near_the_table(tmp_path):
    # one float64 buffer and the dataset's own copies, not a Python object a cell
    rows, cols = 20_000, 11
    p = tmp_path / "wide.csv"
    table = np.random.default_rng(4).uniform(size=(rows, cols))
    p.write_text(",".join([f"x{j}" for j in range(cols - 1)] + ["y"]) + "\n"
                 + "".join(",".join(f"{v:.17g}" for v in r) + "\n" for r in table))
    assert traced_peak(lambda: load_csv(p, "y")) <= 4 * table.nbytes + 2 ** 20


def test_load_csv_reports_faults_in_file_order(tmp_path):
    # the undecodable byte lies past the text decoder's first chunk, so the
    # fault before it is met first
    p = tmp_path / "order.csv"
    padding = b"1,2\n" * 4000
    p.write_bytes(b"a,y\n1,2\n\n# note\n1\n" + padding + b"1,\xff\n")
    with pytest.raises(ParseError, match="order.csv: row 3 has 1 cells, expected 2"):
        load_csv(p, "y")
    p.write_bytes(b"a,b\n" + padding + b"1,\xff\n")
    with pytest.raises(SchemaError, match="label column 'y' not in header"):
        load_csv(p, "y")
    p.write_bytes(b"a,y\n" + padding + b"1,\xff\n")
    with pytest.raises(ParseError, match="not UTF-8 text"):
        load_csv(p, "y")


def test_load_csv_skips_comment_lines(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("# provenance=generated rows=2\na,y\n1.5,2.5\n3.5,4.5\n")
    ds = load_csv(p, "y")
    assert ds.n_rows == 2
    assert np.array_equal(ds.labels, [2.5, 4.5])


# -------------------------------------------------------------- normalizing

def test_normalization_roundtrip_identity():
    ds = _toy(20, 4, seed=9)
    spec = fit_normalizer(ds)
    normed = apply_normalizer(ds, spec)
    assert normed.features.min() >= 0.0 and normed.features.max() <= 1.0
    back = invert_normalizer(normed, spec)
    assert np.max(np.abs(back.features - ds.features)) < 1e-12
    assert np.max(np.abs(back.labels - ds.labels)) < 1e-12


def test_normalizer_fitted_on_train_leaves_test_unclipped():
    train = TabularDataset(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), ("a",))
    test = TabularDataset(np.array([[2.0], [-1.0]]), np.array([3.0, -1.0]), ("a",))
    spec = fit_normalizer(train)
    out = apply_normalizer(test, spec)
    assert out.features[0, 0] == 2.0 and out.features[1, 0] == -1.0
    assert out.labels[0] == 3.0


def test_constant_column_maps_to_half():
    ds = TabularDataset(np.full((4, 2), 7.0), np.full(4, 2.0), ("a", "b"))
    spec = fit_normalizer(ds)
    out = apply_normalizer(ds, spec)
    assert np.all(out.features == 0.5)
    assert np.all(out.labels == 0.5)


def _per_column(ds, spec, inverse):
    """The normalizer mapped one column at a time, the reference for the whole-array one."""
    def col(x, lo, hi):
        if inverse:
            return x * (hi - lo) + lo
        return np.full_like(x, 0.5) if hi <= lo else (x - lo) / (hi - lo)
    cols = [col(ds.features[:, j], spec.feature_lo[j], spec.feature_hi[j])
            for j in range(ds.n_features)]
    feats = np.column_stack(cols) if cols else ds.features.copy()
    return feats, col(ds.labels, spec.label_lo, spec.label_hi)


def test_normalizer_equals_the_per_column_formula_bit_for_bit():
    rng = np.random.default_rng(23)
    x = rng.normal(scale=50.0, size=(40, 5))
    x[:, 2] = -3.25                                         # a constant column
    ds = TabularDataset(x, rng.normal(size=40), tuple("abcde"))
    one_row = TabularDataset(x[:1], np.array([4.0]), tuple("abcde"))
    no_features = TabularDataset(np.zeros((3, 0)), np.array([1.0, 2.0, 4.0]), ())
    # a checkpoint's spec may hold hi < lo, which maps like a constant column
    reversed_spec = NormalizationSpec.from_dict({
        "feature_lo": [-1.0, 2.0, -3.25, 0.0, 7.0], "feature_hi": [1.0, 1.0, -3.25, 2.0, 9.0],
        "label_lo": 1.0, "label_hi": -1.0})
    cases = [(ds, fit_normalizer(ds)), (one_row, fit_normalizer(one_row)),
             (ds, fit_normalizer(one_row)), (ds, reversed_spec),
             (no_features, fit_normalizer(no_features))]
    for ds_, spec in cases:
        for inverse, mapped in ((False, apply_normalizer), (True, invert_normalizer)):
            out = mapped(ds_, spec)
            feats, labels = _per_column(ds_, spec, inverse)
            assert out.features.shape == feats.shape
            assert out.features.tobytes() == feats.tobytes()
            assert out.labels.tobytes() == labels.tobytes()


def test_normalizer_spec_dict_roundtrip():
    spec = fit_normalizer(_toy(12, 2, seed=2))
    again = NormalizationSpec.from_dict(spec.to_dict())
    assert np.array_equal(again.feature_lo, spec.feature_lo)
    assert np.array_equal(again.feature_hi, spec.feature_hi)
    assert again.label_lo == spec.label_lo and again.label_hi == spec.label_hi


# ------------------------------------------------------------------ splits

def test_split_disjoint_deterministic():
    ds = _toy(30, 2, seed=1)
    for seed in (0, 1, 99):
        a1, b1 = split(ds, 20, 10, seed)
        a2, b2 = split(ds, 20, 10, seed)
        assert np.array_equal(a1.features, a2.features)
        assert np.array_equal(b1.labels, b2.labels)
        joined = np.vstack([a1.joint(), b1.joint()])
        original = ds.joint()
        assert sorted(map(tuple, joined)) == sorted(map(tuple, original))
    assert a1.n_rows == 20 and b1.n_rows == 10


def test_split_rejects_overdraw():
    ds = _toy(10, 2)
    with pytest.raises(BudgetError):
        split(ds, 8, 5, 0)


# -------------------------------------------------------------- synthetics

def test_synthetic_names_and_unknown():
    names = ["friedman-like", "piecewise-plant", "sinusoid-2d"]
    for name in names:
        assert synth_make(name, 4, 0.0, 0).n_rows == 4
    with pytest.raises(CatalogError) as err:
        synth_make("no-such-thing", 10, 0.0, 0)
    assert str(err.value).endswith(f"have {names}")


@pytest.mark.parametrize("name", ["friedman-like", "sinusoid-2d", "piecewise-plant"])
def test_zero_noise_labels_match_closed_form(name):
    ds = synth_make(name, 50, 0.0, 123)
    truth = synth_truth(name)
    assert np.max(np.abs(ds.labels - truth(ds.features))) < 1e-12
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0


def test_noise_changes_labels_only():
    clean = synth_make("sinusoid-2d", 40, 0.0, 7)
    noisy = synth_make("sinusoid-2d", 40, 0.3, 7)
    assert np.array_equal(clean.features, noisy.features)
    assert not np.array_equal(clean.labels, noisy.labels)


def test_synth_determinism():
    a = synth_make("friedman-like", 25, 0.1, 9)
    b = synth_make("friedman-like", 25, 0.1, 9)
    assert np.array_equal(a.joint(), b.joint())


def test_friedman_moments_match_quadrature():
    # E[f] and Var[f] over the unit cube via Gauss-Legendre quadrature on
    # the separable pieces: f = 10 sin(pi x1 x2) + 20 (x3-.5)^2 + 10 x4 + 5 x5
    nodes, weights = np.polynomial.legendre.leggauss(48)
    t = 0.5 * (nodes + 1.0)
    w = 0.5 * weights

    # sin(pi x1 x2): 2-D tensor quadrature
    s = np.sin(np.pi * np.outer(t, t))
    e_sin = float(w @ s @ w)
    e_sin2 = float(w @ (s * s) @ w)
    e_quad = float(w @ ((t - 0.5) ** 2))        # E[(x-.5)^2] = 1/12
    e_quad2 = float(w @ ((t - 0.5) ** 4))
    e_lin = 0.5
    var = (100 * (e_sin2 - e_sin ** 2)
           + 400 * (e_quad2 - e_quad ** 2)
           + 100 / 12 + 25 / 12)
    mean = 10 * e_sin + 20 * e_quad + 10 * e_lin + 5 * e_lin

    ds = synth_make("friedman-like", 40000, 0.0, 5)
    assert ds.n_features == 10
    assert abs(ds.labels.mean() - mean) < 0.15 * abs(mean)
    assert abs(ds.labels.var() - var) < 0.15 * var


# ------------------------------------------------------------------- concat

def test_concat_marks_mixed_and_keeps_rows():
    real = _toy(5, 2, seed=1)
    gen_rows = replace(_toy(3, 2, seed=2), provenance="generated")
    both = concat(real, gen_rows)
    assert both.provenance == "mixed"
    assert both.n_rows == 8
    ab = sorted(map(tuple, both.joint()))
    ba = sorted(map(tuple, concat(replace(gen_rows, provenance="real"),
                                  replace(real, provenance="generated")).joint()))
    assert ab == ba


def test_concat_empty_generated_returns_real_unchanged():
    real = _toy(5, 2)
    empty = TabularDataset(np.zeros((0, 2)), np.zeros(0), real.columns,
                           provenance="generated")
    out = concat(real, empty)
    assert np.array_equal(out.features, real.features)
    assert out.provenance == "real"


def test_concat_width_mismatch():
    with pytest.raises(ShapeError):
        concat(_toy(4, 2), _toy(4, 3))
