"""Feature pipeline tests: record assembly, table CSV, scaling, online store."""

import numpy as np
import pytest

from maxentnn import abd_matrices, standard_layups, stiffness_feature_row
from maxentnn.errors import IngestionError, InvalidInputError
from maxentnn.pipeline import (
    ChannelMeasurement,
    Condition,
    FEATURE_COLUMNS,
    FeatureTable,
    MeasurementRecord,
    N_CHANNELS,
    OnlineStore,
    apply_imputer,
    apply_scaler,
    build_feature_row,
    fit_imputer,
    fit_scaler,
    prepare_dataset,
    read_records,
    write_records,
)

FAILURE_CYCLES = {"L1S11": 177_309, "L2S17": 120_000}


def _channel(cid, signal=None, baseline=None):
    rng = np.random.default_rng(cid)
    if baseline is None:
        baseline = rng.normal(size=16)
    if signal is None:
        signal = baseline
    return ChannelMeasurement(cid, signal, baseline)


def baseline_record(n_channels=6, coupon="L1S11", layup=1):
    return MeasurementRecord(
        coupon_id=coupon,
        layup_id=layup,
        cycles=0,
        condition=Condition.BASELINE,
        channels=tuple(_channel(i) for i in range(1, n_channels + 1)),
    )


class TestColumns:
    def test_width_is_530(self):
        assert len(FEATURE_COLUMNS) == 530

    def test_ordering(self):
        assert FEATURE_COLUMNS[0] == "pw_c1"
        assert FEATURE_COLUMNS[251] == "pw_c252"
        assert FEATURE_COLUMNS[252] == "cc_c1"
        assert FEATURE_COLUMNS[503] == "cc_c252"
        assert FEATURE_COLUMNS[504] == "A_11"
        assert FEATURE_COLUMNS[521] == "D_66"
        assert FEATURE_COLUMNS[522:526] == ("condition_0", "condition_1",
                                            "condition_2", "condition_3")
        assert FEATURE_COLUMNS[526:529] == ("layup_1", "layup_2", "layup_3")
        assert FEATURE_COLUMNS[529] == "load"


class TestBuildFeatureRow:
    def test_baseline_record_identity_channels(self):
        record = baseline_record(n_channels=6)
        features, mask, target = build_feature_row(record, failure_cycles=FAILURE_CYCLES)
        assert target == 0.0
        for cid in range(1, 7):
            assert features[cid - 1] == 1.0                      # power ratio
            assert features[N_CHANNELS + cid - 1] == pytest.approx(1.0)  # correlation
            assert not mask[cid - 1]
        # channels 7..252 absent -> masked
        assert mask[6:N_CHANNELS].all()
        assert mask[N_CHANNELS + 6 : 2 * N_CHANNELS].all()

    def test_stiffness_block_matches_laminate(self):
        record = baseline_record(layup=2, coupon="L2S17")
        features, mask, _ = build_feature_row(record, failure_cycles=FAILURE_CYCLES)
        expected = stiffness_feature_row(abd_matrices(standard_layups()[2]))
        np.testing.assert_array_equal(features[504:522], expected)
        assert not mask[504:522].any()

    def test_one_hot_condition_and_layup(self):
        record = MeasurementRecord("L1S11", 1, 1000, Condition.LOADED, load=42.5)
        features, _, _ = build_feature_row(record, failure_cycles=FAILURE_CYCLES)
        np.testing.assert_array_equal(features[522:526], [0.0, 0.0, 0.0, 1.0])
        np.testing.assert_array_equal(features[526:529], [1.0, 0.0, 0.0])
        assert features[529] == 42.5

    def test_observed_coupon_damage_fraction(self):
        record = MeasurementRecord("L1S11", 1, 40_000, Condition.TRACTION_FREE)
        _, _, target = build_feature_row(record, failure_cycles=FAILURE_CYCLES)
        assert target == pytest.approx(40_000 / 177_309, rel=1e-15)

    def test_dead_channel_masked_not_fatal(self):
        dead = ChannelMeasurement(3, [1.0, 2.0, 1.0], [0.0, 0.0, 0.0])
        record = MeasurementRecord("L1S11", 1, 0, Condition.BASELINE, channels=(dead, _channel(5)))
        features, mask, _ = build_feature_row(record, failure_cycles=FAILURE_CYCLES)
        assert mask[2] and mask[N_CHANNELS + 2]
        assert not mask[4] and not mask[N_CHANNELS + 4]
        # every masked cell is NaN and every other cell is set
        assert np.array_equal(np.isnan(features), mask)

    def test_unknown_coupon_and_layup(self):
        record = baseline_record(coupon="NOPE")
        with pytest.raises(IngestionError):
            build_feature_row(record, failure_cycles=FAILURE_CYCLES)
        bad_layup = MeasurementRecord("L1S11", 1, 0, Condition.BASELINE)
        with pytest.raises(IngestionError):
            build_feature_row(bad_layup, layups={2: standard_layups()[2]},
                              failure_cycles=FAILURE_CYCLES)

    def test_load_requires_loaded_condition(self):
        with pytest.raises(IngestionError):
            MeasurementRecord("L1S11", 1, 0, Condition.BASELINE, load=10.0)

    def test_cycles_beyond_failure_rejected(self):
        record = MeasurementRecord("L1S11", 1, 200_000, Condition.BASELINE)
        with pytest.raises(InvalidInputError):
            build_feature_row(record, failure_cycles=FAILURE_CYCLES)


class TestRecordIO:
    def test_round_trip(self, tmp_path):
        records = [
            baseline_record(3),
            MeasurementRecord("L1S11", 1, 40_000, Condition.LOADED, load=8.0,
                              channels=(_channel(1), _channel(9))),
        ]
        path = tmp_path / "records.jsonl"
        write_records(path, records)
        loaded, skipped = read_records(path)
        assert skipped == 0
        assert len(loaded) == 2
        assert loaded[1].condition is Condition.LOADED
        assert loaded[1].load == 8.0
        assert loaded[1].channels[1].channel_id == 9
        np.testing.assert_allclose(loaded[0].channels[0].signal,
                                   records[0].channels[0].signal)

    def test_lenient_skips_malformed(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records(path, [baseline_record(2)])
        with open(path, "a") as fh:
            fh.write("{not json}\n")
        loaded, skipped = read_records(path, strict=False)
        assert len(loaded) == 1 and skipped == 1

    def test_strict_raises_with_line_number(self, tmp_path):
        path = tmp_path / "records.jsonl"
        with open(path, "w") as fh:
            fh.write('{"coupon": "L1S11"}\n')
        with pytest.raises(IngestionError, match=":1:"):
            read_records(path, strict=True)


class TestFeatureTableCsv:
    def test_round_trip_preserves_mask_and_values(self, tmp_path):
        records = [baseline_record(4), baseline_record(5)]
        table = FeatureTable.from_records(records, failure_cycles=FAILURE_CYCLES)
        path = tmp_path / "table.csv"
        table.to_csv(path)
        back = FeatureTable.from_csv(path)
        assert len(back) == 2
        np.testing.assert_array_equal(back.mask, table.mask)
        live = ~table.mask
        np.testing.assert_array_equal(back.rows[live], table.rows[live])
        np.testing.assert_array_equal(back.targets, table.targets)

    def test_header_must_match_exactly(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(IngestionError, match="header mismatch"):
            FeatureTable.from_csv(path)


class TestScalers:
    def test_minmax_maps_training_extremes(self):
        spec = fit_scaler(np.array([[0.0], [10.0]]), "minmax_pm1")
        out = apply_scaler(spec, np.array([[0.0], [10.0], [5.0]]))
        np.testing.assert_allclose(out.ravel(), [-1.0, 1.0, 0.0])

    def test_constant_column_flagged_and_zeroed(self):
        spec = fit_scaler(np.array([[3.0], [3.0]]), "minmax_pm1")
        assert spec.constant[0]
        np.testing.assert_array_equal(apply_scaler(spec, np.array([[3.0]])), [[0.0]])

    def test_standard_statistics(self):
        rng = np.random.default_rng(9)
        rows = rng.normal(3.0, 2.0, size=(500, 3))
        out = apply_scaler(fit_scaler(rows, "standard"), rows)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, rtol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            fit_scaler(np.ones((2, 2)), "quantile")


class TestImputer:
    def test_median_fill(self):
        rows = np.array([[1.0, 5.0], [3.0, np.nan], [2.0, 7.0]])
        mask = np.isnan(rows)
        table = FeatureTable(rows, mask, np.zeros(3), columns=("a", "b"))
        imp = fit_imputer(table)
        np.testing.assert_array_equal(imp.medians, [2.0, 6.0])
        filled = apply_imputer(imp, rows, mask)
        assert filled[1, 1] == 6.0
        assert not np.isnan(filled).any()

    @pytest.mark.parametrize("m", [0, 1, 6, 7])
    @pytest.mark.parametrize("masked", [False, True])
    def test_medians_match_per_column_reference(self, m, masked):
        rng = np.random.default_rng(m)
        rows = rng.normal(size=(m, 5))
        mask = np.zeros((m, 5), dtype=bool)
        if masked and m:
            mask[rng.random((m, 5)) < 0.3] = True
            mask[0, 1] = True  # odd and even live counts across columns
            mask[:, 3] = True  # fully masked column
        rows = np.where(mask, np.nan, rows)
        table = FeatureTable(rows, mask, np.zeros(m), columns=tuple("abcde"))
        reference = np.zeros(5)
        for j in range(5):
            live = rows[~mask[:, j], j]
            if live.size:
                reference[j] = float(np.median(live))
        np.testing.assert_array_equal(fit_imputer(table).medians, reference)
        if masked and m:
            assert fit_imputer(table).medians[3] == 0.0


def random_table(m=100, width=6, seed=0, masked=False):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(m, width))
    mask = np.zeros((m, width), dtype=bool)
    if masked:
        mask[rng.random((m, width)) < 0.05] = True
        rows = np.where(mask, np.nan, rows)
    targets = rng.uniform(0, 1, size=m)
    columns = tuple(f"f{i}" for i in range(width))
    return FeatureTable(rows, mask, targets, columns)


class TestPrepareDataset:
    def test_scaled_range(self):
        table = random_table(m=60, masked=True)
        ds, imputer, scaler = prepare_dataset(table, "minmax_pm1")
        assert ds.n_points == 60
        assert ds.points.min() >= -1.0 - 1e-12
        assert ds.points.max() <= 1.0 + 1e-12
        assert scaler.kind == "minmax_pm1"
        assert imputer.medians.shape == (6,)


class TestOnlineStore:
    def test_append_then_predict_returns_own_target(self):
        table = random_table(m=80, seed=1)
        store = OnlineStore.from_table(table)
        rng = np.random.default_rng(5)
        row = rng.normal(size=6)
        idx = store.append_row(row, target=0.321)
        assert idx == 80
        pred = store.predict(row)
        assert float(np.asarray(pred.value).ravel()[0]) == 0.321
        assert pred.exit_reason == "converged"
        assert store.refit_count == 0

    def test_append_is_order_preserving_and_append_only(self):
        table = random_table(m=10, seed=2)
        store = OnlineStore.from_table(table)
        before = store.snapshot()
        rng = np.random.default_rng(6)
        for i in range(5):
            idx = store.append_row(rng.normal(size=6), target=float(i))
            assert idx == 10 + i
        after = store.snapshot()
        np.testing.assert_array_equal(after.points[:10], before.points)
        np.testing.assert_array_equal(after.labels[:10], before.labels)

    def test_masked_cells_use_frozen_imputer(self):
        table = random_table(m=30, seed=4, masked=True)
        store = OnlineStore.from_table(table)
        row = np.full(6, np.nan)
        row[0] = 1.0
        idx = store.append_row(row, target=0.9)
        stored = store.snapshot().points[idx]
        np.testing.assert_array_equal(
            stored[1:], apply_scaler(store.scaler, store.imputer.medians)[1:])

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_append_rejects_infinite_cells(self, value):
        table = random_table(m=30, seed=4, masked=True)
        store = OnlineStore.from_table(table)
        row = np.zeros(6)
        row[2] = value
        with pytest.raises(IngestionError, match="infinite"):
            store.append_row(row, target=0.5)
        assert len(store) == 30

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_predict_rejects_infinite_cells(self, value):
        table = random_table(m=30, seed=4, masked=True)
        store = OnlineStore.from_table(table)
        query = np.zeros(6)
        query[3] = value
        with pytest.raises(IngestionError, match="infinite"):
            store.predict(query)

    def test_appended_row_is_not_the_callers_array(self):
        table = random_table(m=10, seed=2)
        store = OnlineStore.from_table(table, scaler_kind=None)
        row = np.full(6, 0.25)
        idx = store.append_row(row, target=0.5)
        row[:] = 9.0
        np.testing.assert_array_equal(store.snapshot().points[idx], np.full(6, 0.25))

    def test_cluster_appends_pull_prediction_to_cluster_target(self):
        # broad zero-labeled cloud, then a tight one-labeled cluster lands
        # around the query: the prediction must drift monotonically to 1
        rng = np.random.default_rng(42)
        cloud = rng.uniform(-1.0, 1.0, size=(60, 2))
        keep = np.linalg.norm(cloud, axis=1) > 0.3
        cloud = cloud[keep]
        table = FeatureTable(cloud, np.zeros(cloud.shape, bool),
                             np.zeros(cloud.shape[0]), columns=("x1", "x2"))
        store = OnlineStore.from_table(table, scaler_kind=None)
        query = np.array([0.0, 0.0])
        trace = [float(np.asarray(store.predict(query).value).ravel()[0])]
        for i in range(100):
            angle = 2.0 * np.pi * i / 100.0
            offset = 0.02 * np.array([np.cos(angle), np.sin(angle)])
            store.append_row(query + offset, target=1.0)
            trace.append(float(np.asarray(store.predict(query).value).ravel()[0]))
        assert trace[0] < 0.5
        assert trace[-1] > 0.95
        drops = [b - a for a, b in zip(trace, trace[1:]) if b < a]
        assert all(abs(dr) < 1e-6 for dr in drops)

    def test_record_append(self):
        record = baseline_record(2)
        features, mask, target = build_feature_row(record, failure_cycles=FAILURE_CYCLES)
        table = FeatureTable(features.reshape(1, -1), mask.reshape(1, -1), np.array([target]))
        store = OnlineStore.from_table(table, scaler_kind=None)
        idx = store.append_record(record, failure_cycles=FAILURE_CYCLES)
        assert idx == 1
        assert len(store) == 2
        np.testing.assert_array_equal(store.snapshot().points[1], store.snapshot().points[0])

    def test_query_matrix_normalizes_as_its_rows(self):
        table = random_table(m=30, seed=4, masked=True)
        store = OnlineStore.from_table(table)
        queries = np.random.default_rng(8).normal(size=(4, 6))
        queries[1, 2] = queries[3, 0] = np.nan
        np.testing.assert_array_equal(
            store.normalize(queries), np.stack([store.normalize(q) for q in queries]))

    def test_append_rejects_a_query_matrix(self):
        table = random_table(m=10, seed=2)
        store = OnlineStore.from_table(table)
        with pytest.raises(IngestionError, match="one row"):
            store.append_row(np.zeros((1, 6)), target=0.5)
        assert len(store) == 10


class TestScalerAbsorbsAffineTransforms:
    def test_predictions_invariant_to_raw_column_affine(self):
        # min-max refitting absorbs any prior positive per-column affine
        # map of the raw table, so downstream predictions cannot move
        rng = np.random.default_rng(21)
        rows = rng.normal(size=(80, 5))
        targets = rng.uniform(0, 1, 80)
        mask = np.zeros(rows.shape, dtype=bool)
        cols = tuple(f"f{i}" for i in range(5))
        gains = rng.uniform(0.5, 2.0, 5)
        offsets = rng.uniform(-1.0, 1.0, 5)

        plain = FeatureTable(rows, mask, targets, cols)
        warped = FeatureTable(rows * gains + offsets, mask, targets, cols)
        queries = rng.normal(size=(10, 5))

        ds_plain, _, sc_plain = prepare_dataset(plain, "minmax_pm1")
        ds_warped, _, sc_warped = prepare_dataset(warped, "minmax_pm1")
        from maxentnn import predict_point

        for q in queries:
            a = predict_point(ds_plain, apply_scaler(sc_plain, q.reshape(1, -1))[0])
            b = predict_point(ds_warped, apply_scaler(sc_warped, (q * gains + offsets).reshape(1, -1))[0])
            np.testing.assert_allclose(a.value, b.value, rtol=1e-9, atol=1e-12)


class TestConcurrentReaders:
    def test_single_writer_many_readers(self):
        import threading

        table = random_table(m=40, width=4, seed=30)
        store = OnlineStore.from_table(table)
        stop = threading.Event()
        errors = []
        counter = iter(range(1000))

        def reader():
            q = np.random.default_rng(next(counter)).normal(size=4)
            while not stop.is_set():
                try:
                    snap = store.snapshot()
                    assert snap.n_points >= 40
                    store.predict(q)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for i in range(50):
            store.append_row(np.random.default_rng(100 + i).normal(size=4), float(i % 7) / 7.0)
        stop.set()
        for t in threads:
            t.join()
        assert not errors
        assert len(store) == 90


class TestCanonicalTargetRange:
    def test_from_csv_rejects_out_of_range_damage(self, tmp_path):
        table = FeatureTable.from_records([baseline_record(2)], failure_cycles=FAILURE_CYCLES)
        path = tmp_path / "t.csv"
        table.to_csv(path)
        text = path.read_text().splitlines()
        text[1] = text[1].rsplit(",", 1)[0] + ",1.5"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(IngestionError, match=r"\[0, 1\]"):
            FeatureTable.from_csv(path)
