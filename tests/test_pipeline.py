"""Feature pipeline tests: record assembly, table CSV, scaling, online store."""

import csv
import io
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from maxentnn import (
    abd_matrices,
    correlation_coefficient,
    power_ratio,
    standard_layups,
    stiffness_feature_row,
)
import maxentnn.pipeline
from maxentnn.errors import DegenerateBaselineError, IngestionError, InvalidInputError
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
    read_numeric_csv,
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

    def test_awkward_record_matches_per_channel_reference_bit_for_bit(self):
        rng = np.random.default_rng(11)
        live16, live40 = rng.normal(size=16), rng.normal(size=40)
        channels = (
            _channel(200, signal=rng.normal(size=40), baseline=live40),   # second length
            ChannelMeasurement(9, rng.normal(size=16), np.zeros(16)),      # dead baseline
            ChannelMeasurement(4, np.full(16, 0.75), live16),              # constant signal
            ChannelMeasurement(150, np.zeros(40), live40),                 # all-zero signal
            _channel(2, signal=0.5 * live16 + rng.normal(size=16), baseline=live16),
            _channel(31),
        )
        record = MeasurementRecord("L1S11", 1, 5000, Condition.CLAMPED, channels=channels)
        features, mask, _ = build_feature_row(record, failure_cycles=FAILURE_CYCLES)

        expected = np.full(2 * N_CHANNELS, np.nan)
        for ch in channels:
            for offset, fn in ((0, power_ratio), (N_CHANNELS, correlation_coefficient)):
                try:
                    expected[offset + ch.channel_id - 1] = fn(ch.signal, ch.baseline)
                except DegenerateBaselineError:
                    pass
        head = slice(0, 2 * N_CHANNELS)
        assert np.array_equal(features[head], expected, equal_nan=True)
        assert np.array_equal(mask[head], np.isnan(expected))
        assert mask[8] and mask[N_CHANNELS + 8]
        assert not mask[3] and mask[N_CHANNELS + 3]
        assert features[149] == 0.0 and not mask[149] and mask[N_CHANNELS + 149]
        assert np.array_equal(mask, np.isnan(features))

    def test_signal_and_baseline_lengths_must_match(self):
        with pytest.raises(IngestionError, match="channel 7"):
            ChannelMeasurement(7, np.ones(10), np.ones(12))

    def test_unknown_coupon_and_layup(self):
        record = baseline_record(coupon="NOPE")
        with pytest.raises(IngestionError):
            build_feature_row(record, failure_cycles=FAILURE_CYCLES)
        bad_layup = MeasurementRecord("L1S11", 1, 0, Condition.BASELINE)
        with pytest.raises(IngestionError):
            build_feature_row(bad_layup, layups={2: standard_layups()[2]},
                              failure_cycles=FAILURE_CYCLES)

    @pytest.mark.parametrize("layup_id", [0, -1, 4, 5])
    def test_layup_id_without_a_one_hot_column_is_rejected(self, layup_id):
        # a custom catalog may name any id, but only 1..3 have a layup column
        record = MeasurementRecord("L1S11", layup_id, 0, Condition.BASELINE)
        with pytest.raises(IngestionError, match="one-hot"):
            build_feature_row(record, layups={layup_id: standard_layups()[1]},
                              failure_cycles=FAILURE_CYCLES)

    def test_load_requires_loaded_condition(self):
        with pytest.raises(IngestionError):
            MeasurementRecord("L1S11", 1, 0, Condition.BASELINE, load=10.0)

    def test_cycles_beyond_failure_rejected(self):
        record = MeasurementRecord("L1S11", 1, 200_000, Condition.BASELINE)
        with pytest.raises(InvalidInputError):
            build_feature_row(record, failure_cycles=FAILURE_CYCLES)

    def test_channel_freezes_a_view_not_the_callers_array(self):
        signal, baseline = np.linspace(0.0, 1.0, 8), np.linspace(1.0, 2.0, 8)
        ch = ChannelMeasurement(1, signal, baseline)
        assert signal.flags.writeable and baseline.flags.writeable
        assert not ch.signal.flags.writeable and not ch.baseline.flags.writeable
        with pytest.raises(ValueError):
            ch.signal[0] = 1.0
        # a view, not a copy: records sharing a baseline keep sharing its memory
        assert np.shares_memory(ch.signal, signal) and np.shares_memory(ch.baseline, baseline)


def _per_channel_reference(channels) -> np.ndarray:
    """The 504 channel cells from the 1-D public calls, NaN where they raise."""
    expected = np.full(2 * N_CHANNELS, np.nan)
    for ch in channels:
        for offset, fn in ((0, power_ratio), (N_CHANNELS, correlation_coefficient)):
            try:
                expected[offset + ch.channel_id - 1] = fn(ch.signal, ch.baseline)
            except DegenerateBaselineError:
                pass
    return expected


def _channel_cells(channels) -> np.ndarray:
    record = MeasurementRecord("L1S11", 1, 5000, Condition.CLAMPED, channels=tuple(channels))
    return build_feature_row(record, failure_cycles=FAILURE_CYCLES)[0][: 2 * N_CHANNELS]


class TestChannelKernel:
    """``build_feature_row`` computes both features of a sample count in one kernel call."""

    def test_partial_block_stack_matches_one_dimensional_calls_bit_for_bit(self):
        # 251 rows of 256 samples: 7 blocks of 32 rows and one of 27
        rng = np.random.default_rng(251)
        baselines = rng.normal(size=(251, 256))
        channels = [ChannelMeasurement(i + 1, 0.8 * b + 0.3 * rng.normal(size=256), b)
                    for i, b in enumerate(baselines)]
        cells = _channel_cells(channels)
        assert not np.isnan(cells[:251]).any() and np.isnan(cells[251])
        assert np.array_equal(cells, _per_channel_reference(channels), equal_nan=True)

    def test_degenerate_and_tiny_channels_of_two_lengths_match_bit_for_bit(self):
        rng = np.random.default_rng(12)
        channels = []
        for i in range(120):
            n = 256 if i % 3 else 100
            signal, baseline = rng.normal(1.0, 2.0, n), rng.normal(-0.5, 1.0, n)
            kind = i % 8
            if kind == 1:
                baseline = np.zeros(n)                          # dead baseline
            elif kind == 2:
                signal = np.full(n, 0.75)                       # constant signal
            elif kind == 3:
                signal = np.zeros(n)                            # all-zero signal
            elif kind == 4:
                signal, baseline = signal * 1e-100, baseline * 1e-100  # variance product underflows
            channels.append(ChannelMeasurement(2 * i + 1, signal, baseline))
        cells = _channel_cells(channels)
        expected = _per_channel_reference(channels)
        assert np.array_equal(cells, expected, equal_nan=True)
        # each kind of degenerate channel gives the missing cells it should
        assert np.isnan(cells[[2, N_CHANNELS + 2]]).all()              # dead baseline
        assert not np.isnan(cells[4]) and np.isnan(cells[N_CHANNELS + 4])  # constant
        assert cells[6] == 0.0 and np.isnan(cells[N_CHANNELS + 6])        # all-zero
        assert not np.isnan(cells[[8, N_CHANNELS + 8]]).any()            # tiny amplitudes

    @pytest.mark.parametrize("n", [7, 128, 257])
    def test_memory_layout_does_not_change_the_bits(self, n):
        rng = np.random.default_rng(3000 + n)
        signals, baselines = rng.normal(size=(2, 6, n))
        wide_s, wide_b = np.repeat(signals, 2, axis=1), np.repeat(baselines, 2, axis=1)
        layouts = [
            (np.asfortranarray(signals), np.asfortranarray(baselines)),
            (wide_s[:, ::2], wide_b[:, ::2]),
        ]

        def cells(s, b):
            return _channel_cells([ChannelMeasurement(3 * i + 1, s[i], b[i]) for i in range(6)])

        expected = cells(signals, baselines)
        for s, b in layouts:
            assert np.array_equal(cells(s, b), expected, equal_nan=True)

    def test_one_kernel_call_per_sample_count(self, monkeypatch):
        calls = []
        real = maxentnn.pipeline._channel_features

        def counting(signals, baselines):
            calls.append({len(s) for s in signals} | {len(b) for b in baselines})
            return real(signals, baselines)

        monkeypatch.setattr(maxentnn.pipeline, "_channel_features", counting)
        lengths = (16, 40, 16, 7, 40, 16)
        channels = [_channel(i + 1, baseline=np.random.default_rng(i).normal(size=n))
                    for i, n in enumerate(lengths)]
        _channel_cells(channels)
        assert calls == [{16}, {40}, {7}]
        calls.clear()
        _channel_cells(channels[:1])
        _channel_cells([])
        assert calls == [{16}]

    def test_samples_changed_after_construction_are_still_checked(self):
        # the caller's arrays stay writeable, so a record can go bad after it is built
        signal, baseline = np.linspace(0.0, 1.0, 64), np.linspace(1.0, 2.0, 64)
        channels = [ChannelMeasurement(1, signal, baseline), _channel(2)]
        signal[3] = np.nan
        with pytest.raises(InvalidInputError, match="signal"):
            _channel_cells(channels)
        baseline[5] = np.inf
        # centring a row with an infinite sample gives NaN before the check rejects it
        with np.errstate(invalid="ignore"), pytest.raises(InvalidInputError, match="baseline"):
            _channel_cells(channels)

    def test_overflowing_finite_samples_are_not_rejected(self):
        # squares of finite samples can overflow, so an infinite power alone is no error
        rng = np.random.default_rng(5)
        channels = [ChannelMeasurement(1, rng.normal(size=16) * 1e200, rng.normal(size=16)),
                    ChannelMeasurement(2, rng.normal(size=16), rng.normal(size=16) * 1e200)]
        with np.errstate(over="ignore", invalid="ignore"):
            cells = _channel_cells(channels)
            expected = _per_channel_reference(channels)
        assert cells[0] == np.inf and cells[1] == 0.0
        assert np.array_equal(cells, expected, equal_nan=True)


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

    @staticmethod
    def _write_mismatched_channel(path):
        write_records(path, [baseline_record(2)])
        with open(path, "a") as fh:
            fh.write('{"coupon": "L1S11", "layup": 1, "cycles": 0, "condition": "baseline", '
                     '"channels": [{"id": 4, "signal": [1.0, 2.0], '
                     '"baseline": [1.0, 2.0, 3.0]}]}\n')

    def test_strict_rejects_mismatched_channel_lengths(self, tmp_path):
        path = tmp_path / "records.jsonl"
        self._write_mismatched_channel(path)
        with pytest.raises(IngestionError, match=r":2: channel 4"):
            read_records(path, strict=True)

    def test_lenient_skips_mismatched_channel_lengths(self, tmp_path):
        path = tmp_path / "records.jsonl"
        self._write_mismatched_channel(path)
        loaded, skipped = read_records(path, strict=False)
        assert len(loaded) == 1 and skipped == 1

    _FRACTIONAL = [
        ("layup", {"layup": 1.9}),
        ("cycles", {"cycles": 50.7}),
        ("channel id", {"channels": [{"id": 2.5, "signal": [1.0, 2.0], "baseline": [2.0, 1.0]}]}),
    ]

    @staticmethod
    def _write_with_fields(path, fields):
        write_records(path, [baseline_record(2)])
        record = {"coupon": "L1S11", "layup": 1, "cycles": 50, "condition": "baseline",
                  "channels": [{"id": 2, "signal": [1.0, 2.0], "baseline": [2.0, 1.0]}]}
        with open(path, "a") as fh:
            fh.write(json.dumps({**record, **fields}) + "\n")

    @pytest.mark.parametrize("name, fields", _FRACTIONAL, ids=["layup", "cycles", "channel-id"])
    def test_strict_rejects_fractional_integer_fields(self, tmp_path, name, fields):
        path = tmp_path / "records.jsonl"
        self._write_with_fields(path, fields)
        value = next(iter(fields.values()))
        value = value if name != "channel id" else value[0]["id"]
        with pytest.raises(IngestionError, match=rf":2: malformed record: {name} {value!r} is not"):
            read_records(path, strict=True)

    @pytest.mark.parametrize("name, fields", _FRACTIONAL, ids=["layup", "cycles", "channel-id"])
    def test_lenient_skips_fractional_integer_fields(self, tmp_path, name, fields):
        path = tmp_path / "records.jsonl"
        self._write_with_fields(path, fields)
        loaded, skipped = read_records(path, strict=False)
        assert len(loaded) == 1 and skipped == 1

    _NOT_NUMBERS = [
        ("layup", {"layup": True}, True),
        ("layup", {"layup": "2"}, "2"),
        ("cycles", {"cycles": True}, True),
        ("cycles", {"cycles": "50"}, "50"),
        ("channel id", {"channels": [{"id": True, "signal": [1.0, 2.0], "baseline": [2.0, 1.0]}]},
         True),
        ("channel id", {"channels": [{"id": "2", "signal": [1.0, 2.0], "baseline": [2.0, 1.0]}]},
         "2"),
        ("load", {"condition": "loaded", "load": True}, True),
        ("load", {"load": False}, False),
    ]

    @pytest.mark.parametrize("name, fields, value", _NOT_NUMBERS)
    def test_strict_rejects_bools_and_strings_as_numbers(self, tmp_path, name, fields, value):
        path = tmp_path / "records.jsonl"
        self._write_with_fields(path, fields)
        with pytest.raises(IngestionError, match=rf":2: malformed record: {name} {value!r} is not"):
            read_records(path, strict=True)

    @pytest.mark.parametrize("name, fields, value", _NOT_NUMBERS)
    def test_lenient_skips_bools_and_strings_as_numbers(self, tmp_path, name, fields, value):
        path = tmp_path / "records.jsonl"
        self._write_with_fields(path, fields)
        loaded, skipped = read_records(path, strict=False)
        assert len(loaded) == 1 and skipped == 1

    def test_integral_floats_are_read_as_integers(self, tmp_path):
        path = tmp_path / "records.jsonl"
        self._write_with_fields(path, {"layup": 2.0, "cycles": 50.0})
        loaded, skipped = read_records(path, strict=True)
        assert skipped == 0
        assert (loaded[1].layup_id, loaded[1].cycles, loaded[1].channels[0].channel_id) == (2, 50, 2)


class TestFeatureTableCsv:
    def test_round_trip_preserves_mask_and_values(self, tmp_path):
        records = [baseline_record(4), baseline_record(5)]
        table = FeatureTable.from_records(records, failure_cycles=FAILURE_CYCLES)
        path = tmp_path / "table.csv"
        table.to_csv(path)
        back = FeatureTable.from_csv(path)
        assert len(back) == 2
        np.testing.assert_array_equal(np.isnan(back.rows), np.isnan(table.rows))
        live = ~np.isnan(table.rows)
        np.testing.assert_array_equal(back.rows[live], table.rows[live])
        np.testing.assert_array_equal(back.targets, table.targets)

    def test_header_must_match_exactly(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(IngestionError, match="header mismatch"):
            FeatureTable.from_csv(path)


def _cell_by_cell_read(path):
    """The parser ``read_numeric_csv`` used before its one ``np.loadtxt`` pass,
    kept verbatim as the reference: ``csv.reader`` splits each record and
    every cell goes through ``float``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise IngestionError(f"{path}: empty file")
        rows, blanks = [], []
        for lineno, cells in enumerate(reader, start=2):
            if len(cells) != len(header):
                raise IngestionError(f"{path}:{lineno}: expected {len(header)} cells")
            try:
                rows.append([float(c) if c != "" else np.nan for c in cells])
            except ValueError as exc:
                raise IngestionError(f"{path}:{lineno}: {exc}") from None
            blanks.append(cells.count(""))
    data = np.array(rows, dtype=float) if rows else np.zeros((0, len(header)))
    # checked on the parsed array, off the per-cell path: a NaN that is not
    # an empty field came from text such as "nan"
    non_finite = np.isinf(data).any(axis=1) | (np.isnan(data).sum(axis=1) != blanks)
    if non_finite.any():
        raise IngestionError(
            f"{path}:{int(np.argmax(non_finite)) + 2}: non-finite number; "
            "only empty fields mark missing cells"
        )
    return header, data


class TestReadNumericCsv:
    """The one ``np.loadtxt`` pass reads what the cell-by-cell parser read."""

    @staticmethod
    def _outcome(read, path):
        """``(header, data)``, or ``("error", line)`` with the line the error names."""
        try:
            return read(path)
        except IngestionError as exc:
            where = re.match(r":(\d+): ", str(exc)[len(str(path)):])
            return "error", where and int(where[1])

    def _assert_same(self, path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = self._outcome(read_numeric_csv, path)
        want = self._outcome(_cell_by_cell_read, path)
        assert got[0] == want[0]
        if got[0] == "error":
            assert got[1] == want[1]
        else:
            assert got[1].dtype == want[1].dtype and got[1].shape == want[1].shape
            assert got[1].tobytes() == want[1].tobytes()
        return got

    def test_random_repr_table_with_scattered_blanks_is_bit_equal(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(40, 7)) * 10.0 ** rng.integers(-300, 300, size=(40, 7))
        values[rng.random(values.shape) < 0.2] = np.nan
        values[3, 0] = values[4, -1] = values[5, :] = np.nan  # first, last and every cell
        # repr cells and empty NaN cells, as ``FeatureTable.to_csv`` writes them
        lines = [",".join(f"c{j}" for j in range(7))]
        lines += [",".join("" if np.isnan(v) else repr(v) for v in row) for row in values.tolist()]
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines) + "\n")
        _, data = self._assert_same(path)
        assert data.tobytes() == values.tobytes()

    @pytest.mark.parametrize(
        "text",
        [
            "a,b\n1,2\n",
            "a,b\r\n1,2\r\n-3.5e-7,4\r\n",
            "a,b\n1,2\n3,4",
            "a\n1\n2\n",
            'a,"b\nc"\n1,2\n',
            "a,b\n1,\n3,4\n",
            "a,b\n1,abc\n",
            "a,b\n1,nan\n",
            "a,b\n1,inf\n",
            "a,b\n1e400,2\n",
            "a,b\n1,2\n3\n",
            "a,b\n1,2,3\n",
            'a,b\n"1.5",2\n',
            "a,b\n",
            "a,b\n1,2\n\n3,4\n",
            "a,b\n1,2\n3,4\n\n",
            "a,b\n1,2\n  \n",
            "a,b\r1,2\r\r3,4\r",
            "a,b\n,2\n3,4\n",
            "a,b\n1,2\n3,\n",
            "a,b\n1,2\n3,",
            "a,b\r\n1,2\r\n3,\r\n",
            "a,b\r1,\r3,4\r",
            "a,b,c\n1,,3\n",
            "a,b\n,\n1,,\n",
            "a\n1\n\n2\n",
            "a\n1\n  \n",
            "",
            # blank cells, then a bad cell on a later line
            "a,b\n1,\n,2\n3,abc\n",
            "a,b\n,1\n2,3\n4,nan\n",
            "a,b,c\n1,,3\n4,5,-inf\n",
            "a,b\n1,\n2,3,4\n",
            "a,b\n1,\n2\n",
            "a,b\n1,\n\n",
            # quoted header and body cells
            '"a","b"\n"1.5","-2"\n',
            '"a,b",c\n1,"2"\n',
            'a,b\n"1",""\n"",2\n',
            'a\n""\n1\n',
            'a,b\n"1,5",2\n',
            'a,b\n"1""2",2\n',
            'a\n"1"",""2"\n',
            'a,b\n1,"  "\n',
            'a,b\n"1\n",2\n3,x\n',
            'a,b\n1,"2\n3\n',
            # CR-only and CRLF endings
            "a,b\r1,\r,2\r3,x\r",
            "a,b\r\n1,\r\n,2\r\n3,x\r\n",
            "a,b\r\n1,2\r\n\r\n",
            # padded cells
            "a,b\n 1 ,\t2\n",
            "a,b\n1, \n",
        ],
    )
    def test_result_or_error_line_is_unchanged(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        self._assert_same(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["a,b\n", "a,b", 'a,"b\nc"\r\n'])
    def test_header_only_file_is_an_empty_table(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        header, data = read_numeric_csv(path)
        assert data.shape == (0, len(header)) and data.dtype == float

    def test_unreadable_cell_names_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3,\n5,6\n7,abc\n")
        with pytest.raises(IngestionError, match=r"t\.csv:5: could not convert string 'abc'"):
            read_numeric_csv(path)

    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "\uff11.5"])
    def test_cells_outside_numpys_float_grammar_are_errors(self, tmp_path, cell):
        # Python's float reads these, so the cell-by-cell parser accepted them
        path = tmp_path / "t.csv"
        path.write_text(f"a,b\n1,2\n{cell},\n", encoding="utf-8")
        assert np.isfinite(_cell_by_cell_read(path)[1][1, 0])
        with pytest.raises(IngestionError, match=r"t\.csv:3: could not convert"):
            read_numeric_csv(path)

    def test_blank_cell_table_allocates_about_one_array(self, tmp_path):
        # the cell-by-cell parser peaked at over 5x the array on this table
        rng = np.random.default_rng(3)
        values = rng.normal(size=(1368, 256))
        values[rng.random(values.shape) < 0.01] = np.nan
        text = io.StringIO()
        np.savetxt(text, values, delimiter=",", header=",".join(f"c{j}" for j in range(256)),
                   comments="")
        path = tmp_path / "t.csv"
        path.write_text(text.getvalue().replace("nan", ""))
        tracemalloc.start()
        try:
            _, data = read_numeric_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(np.isnan(data), np.isnan(values))
        assert peak <= 1.3 * data.nbytes


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
        table = FeatureTable(rows, np.zeros(3), columns=("a", "b"))
        imp = fit_imputer(table)
        np.testing.assert_array_equal(imp.medians, [2.0, 6.0])
        filled = apply_imputer(imp, rows)
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
        table = FeatureTable(rows, np.zeros(m), columns=tuple("abcde"))
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
    return FeatureTable(rows, targets, columns)


class TestPrepareDataset:
    def test_scaled_range(self):
        table = random_table(m=60, masked=True)
        store = OnlineStore.from_table(table, scaler_kind="minmax_pm1")
        ds, imputer, scaler = store.snapshot(), store.imputer, store.scaler
        assert ds.n_points == 60
        assert ds.points.min() >= -1.0 - 1e-12
        assert ds.points.max() <= 1.0 + 1e-12
        assert scaler.kind == "minmax_pm1"
        assert imputer.medians.shape == (6,)


def _old_store_arrays(rows, kind):
    """Medians, scaler and points as loading computed them with one array per
    step: a whole-table median, a filled copy and ``(x - center) / scale``."""
    missing = np.isnan(rows)
    medians = np.zeros(rows.shape[1])
    gappy = missing.any(axis=0)
    full = np.flatnonzero(~gappy)
    medians[full] = np.median(rows[:, full], axis=0)
    for j in np.flatnonzero(gappy):
        live = rows[~missing[:, j], j]
        if live.size:
            medians[j] = float(np.median(live))
    filled = np.where(missing, medians, rows)
    if kind is None:
        return medians, None, filled
    spec = fit_scaler(filled, kind)
    return medians, spec, (filled - spec.center) / spec.scale


def _loaded_table(m, width, seed):
    """A table with blank cells, an all-blank column and two constant columns."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(m, width)) * rng.uniform(0.1, 10.0, size=width)
    rows[rng.random((m, width)) < 0.1] = np.nan
    rows[:, 2] = np.nan
    rows[:, 5] = 3.25
    rows[:, 7] = 0.0
    return FeatureTable(rows, rng.uniform(0, 1, size=m), tuple(f"f{i}" for i in range(width)))


def _csv_table(tmp_path, m=600, width=200):
    path = tmp_path / "table.csv"
    rng = np.random.default_rng(3)
    FeatureTable(rng.normal(size=(m, width)), rng.uniform(0, 1, size=m),
                 tuple(f"f{i}" for i in range(width))).to_csv(path)
    return path


def _peak_new_bytes(fn):
    """Peak bytes allocated by ``fn()`` above what was held when it started."""
    fn()  # first-call allocations (caches, lazy imports) are not the load's
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestOneWorkingCopy:
    """``from_table`` imputes and scales one copy of the table, bit for bit as
    one array per step did, and leaves what the caller passed untouched."""

    @pytest.mark.parametrize("kind", ["minmax_pm1", "standard", None])
    @pytest.mark.parametrize("m", [1, 2, 7, 8, 33])
    def test_points_medians_and_scaler_match_one_array_per_step(self, kind, m, monkeypatch):
        # three rows of eight bytes per block: a 40-column table spans many blocks
        monkeypatch.setattr(maxentnn.pipeline, "_MEDIAN_BLOCK_BYTES", 3 * 8 * m)
        table = _loaded_table(m, 40, seed=m)
        rows_before = table.rows.copy()
        medians, spec, points = _old_store_arrays(table.rows, kind)
        store = OnlineStore.from_table(table, scaler_kind=kind)
        np.testing.assert_array_equal(store.imputer.medians, medians)
        np.testing.assert_array_equal(store.snapshot().points, points)
        if kind is None:
            assert store.scaler is None
        else:
            for field in ("center", "scale", "constant"):
                np.testing.assert_array_equal(getattr(store.scaler, field), getattr(spec, field))
        np.testing.assert_array_equal(table.rows, rows_before)

    @pytest.mark.parametrize("kind", ["minmax_pm1", "standard", None])
    def test_points_do_not_share_memory_with_the_table(self, kind):
        table = random_table(m=20, seed=3)
        store = OnlineStore.from_table(table, scaler_kind=kind)
        assert not np.shares_memory(store.snapshot().points, table.rows)

    def test_fortran_ordered_table_loads_as_its_c_ordered_copy(self):
        table = _loaded_table(30, 12, seed=6)
        f_table = FeatureTable(np.asfortranarray(table.rows), table.targets, table.columns)
        points = OnlineStore.from_table(f_table).snapshot().points
        assert points.flags.c_contiguous
        np.testing.assert_array_equal(points, OnlineStore.from_table(table).snapshot().points)

    @pytest.mark.parametrize("kind", ["minmax_pm1", "standard"])
    @pytest.mark.parametrize("blank", [False, True])
    def test_normalize_returns_a_new_array_and_keeps_its_input(self, kind, blank):
        store = OnlineStore.from_table(random_table(m=20, seed=3, masked=True), scaler_kind=kind)
        queries = np.random.default_rng(8).normal(size=(4, 6))
        if blank:
            queries[1, 2] = np.nan
        before = queries.copy()
        out = store.normalize(queries)
        assert not np.shares_memory(out, queries)
        np.testing.assert_array_equal(queries, before)

    def test_apply_scaler_in_place_matches_a_new_array(self):
        rows = np.random.default_rng(2).normal(size=(9, 4))
        spec = fit_scaler(rows, "standard")
        expected = apply_scaler(spec, rows)
        assert apply_scaler(spec, rows, out=rows) is rows
        np.testing.assert_array_equal(rows, expected)

    def test_from_table_allocates_about_one_table(self):
        table = _loaded_table(600, 200, seed=5)
        peak = _peak_new_bytes(lambda: OnlineStore.from_table(table))
        assert peak <= 1.3 * table.rows.nbytes

    def test_load_holds_the_parsed_table_and_the_points(self, tmp_path):
        path = _csv_table(tmp_path)
        nbytes = FeatureTable.from_csv(path).rows.nbytes
        peak = _peak_new_bytes(lambda: OnlineStore.from_table(FeatureTable.from_csv(path)))
        assert peak <= 2.3 * nbytes


class TestOnlineStore:
    def test_snapshot_is_the_same_dataset_between_appends(self):
        store = OnlineStore.from_table(random_table(m=10, seed=2))
        assert store.snapshot() is store.snapshot()
        store.append_row(np.zeros(6), target=0.5)
        assert store.snapshot() is store.snapshot()

    def test_append_leaves_an_earlier_snapshot_unchanged(self):
        store = OnlineStore.from_table(random_table(m=10, seed=2))
        before = store.snapshot()
        points, labels = before.points.copy(), before.labels.copy()
        store.append_row(np.ones(6), target=0.5)
        assert before.n_points == 10
        np.testing.assert_array_equal(before.points, points)
        np.testing.assert_array_equal(before.labels, labels)
        after = store.snapshot()
        assert after.n_points == 11
        assert after.labels[10, 0] == 0.5

    def test_append_rejects_a_non_finite_target_and_keeps_serving(self):
        store = OnlineStore.from_table(random_table(m=10, seed=2))
        with pytest.raises(InvalidInputError, match="non-finite"):
            store.append_row(np.zeros(6), target=np.nan)
        assert len(store) == 10
        store.predict(np.zeros(6))

    @pytest.mark.parametrize("kind", ["minmax_pm1", "standard", None])
    def test_from_table_points_are_the_imputed_scaled_rows(self, kind):
        table = random_table(m=40, seed=9, masked=True)
        filled = apply_imputer(fit_imputer(table), table.rows)
        expected = filled if kind is None else apply_scaler(fit_scaler(filled, kind), filled)
        store = OnlineStore.from_table(table, scaler_kind=kind)
        np.testing.assert_array_equal(store.snapshot().points, expected)
        np.testing.assert_array_equal(store.snapshot().labels[:, 0], table.targets)

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
    def test_table_rejects_infinite_cells(self, value):
        rows = random_table(m=30, seed=4, masked=True).rows
        rows[5, 1] = value
        with pytest.raises(IngestionError, match="infinite"):
            FeatureTable(rows, np.zeros(30), tuple(f"f{i}" for i in range(6)))

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

    def test_appended_rows_are_not_the_callers_array(self):
        table = random_table(m=10, seed=2)
        store = OnlineStore.from_table(table, scaler_kind=None)
        rows = np.full((3, 6), 0.25)
        store.append_rows(rows, [0.1, 0.2, 0.3])
        points = store.snapshot().points
        assert not np.shares_memory(points, rows)
        assert not points.flags.writeable
        rows[:] = 9.0
        np.testing.assert_array_equal(points[10:], np.full((3, 6), 0.25))

    def test_cluster_appends_pull_prediction_to_cluster_target(self):
        # broad zero-labeled cloud, then a tight one-labeled cluster lands
        # around the query: the prediction must drift monotonically to 1
        rng = np.random.default_rng(42)
        cloud = rng.uniform(-1.0, 1.0, size=(60, 2))
        keep = np.linalg.norm(cloud, axis=1) > 0.3
        cloud = cloud[keep]
        table = FeatureTable(cloud, np.zeros(cloud.shape[0]), columns=("x1", "x2"))
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
        features, _, target = build_feature_row(record, failure_cycles=FAILURE_CYCLES)
        table = FeatureTable(features.reshape(1, -1), np.array([target]))
        store = OnlineStore.from_table(table, scaler_kind=None)
        appended = FeatureTable.from_records([record], failure_cycles=FAILURE_CYCLES)
        idx = store.append_rows(appended.rows, appended.targets)
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

    def test_append_rows_matches_row_by_row_appends(self):
        table = random_table(m=30, seed=4, masked=True)
        rows = np.random.default_rng(9).normal(size=(5, 6))
        rows[1, 2] = rows[4, 0] = np.nan
        targets = np.linspace(0.1, 0.9, 5)
        one_by_one = OnlineStore.from_table(table)
        for row, target in zip(rows, targets):
            one_by_one.append_row(row, target)
        batched = OnlineStore.from_table(table)
        assert batched.append_rows(rows, targets) == 30
        np.testing.assert_array_equal(batched.snapshot().points, one_by_one.snapshot().points)
        np.testing.assert_array_equal(batched.snapshot().labels, one_by_one.snapshot().labels)

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
        cols = tuple(f"f{i}" for i in range(5))
        gains = rng.uniform(0.5, 2.0, 5)
        offsets = rng.uniform(-1.0, 1.0, 5)

        plain = FeatureTable(rows, targets, cols)
        warped = FeatureTable(rows * gains + offsets, targets, cols)
        queries = rng.normal(size=(10, 5))

        store_plain = OnlineStore.from_table(plain, scaler_kind="minmax_pm1")
        store_warped = OnlineStore.from_table(warped, scaler_kind="minmax_pm1")

        for q in queries:
            a = store_plain.predict(q)
            b = store_warped.predict(q * gains + offsets)
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
