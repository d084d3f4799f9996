"""Serialization round-trips and malformed-file diagnostics."""

import dataclasses
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splatvid import fileio
from splatvid.core import (
    RHO_MAX,
    SIGMA_MIN,
    Density,
    FlowField,
    FrameBuffer,
    GaussianField,
)
from splatvid.cpb import FuserWeights, default_bank
from splatvid.fileio import FormatError
from splatvid.metrics import StabilityReport
from conftest import DEEP_DOC, LONG_INT_DOC, fields_equal


def f32_field(rng, w, h, density=Density.ONE_PER_PIXEL) -> GaussianField:
    """Random field whose values are exactly f32-representable."""
    gw, gh = density.grid_shape(w, h)
    n = gw * gh
    f32 = lambda a: a.astype(np.float32).astype(np.float64)
    return GaussianField(
        lr_width=w,
        lr_height=h,
        density=density,
        offsets=f32(rng.uniform(0, 1, (n, 2))),
        sigmas=f32(rng.uniform(0.3, 3.0, (n, 2))),
        rhos=f32(rng.uniform(-0.9, 0.9, n)),
        colors=f32(rng.uniform(0, 1, (n, 3))),
        timestamp=0.25,
    )


class TestGsf:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        for density in Density:
            f = f32_field(rng, 5, 4, density)
            p = tmp_path / "f.gsf"
            fileio.save_gsf(p, f)
            back = fileio.load_gsf(p)
            assert fields_equal(f, back)
            assert back.timestamp == f.timestamp

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.gsf"
        p.write_bytes(b"NOPE" + b"\0" * 40)
        with pytest.raises(FormatError):
            fileio.load_gsf(p)

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(1)
        f = f32_field(rng, 4, 4)
        p = tmp_path / "f.gsf"
        fileio.save_gsf(p, f)
        data = p.read_bytes()
        p.write_bytes(data[:-10])
        with pytest.raises(FormatError) as exc:
            fileio.load_gsf(p)
        assert exc.value.offset is not None

    def test_count_grid_mismatch(self, tmp_path):
        rng = np.random.default_rng(2)
        f = f32_field(rng, 4, 4)
        p = tmp_path / "f.gsf"
        fileio.save_gsf(p, f)
        data = bytearray(p.read_bytes())
        data[17:21] = (99).to_bytes(4, "little")  # declared count field
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            fileio.load_gsf(p)

    def test_bad_density_byte(self, tmp_path):
        rng = np.random.default_rng(3)
        f = f32_field(rng, 4, 4)
        p = tmp_path / "f.gsf"
        fileio.save_gsf(p, f)
        data = bytearray(p.read_bytes())
        data[12] = 7
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            fileio.load_gsf(p)

    @pytest.mark.parametrize(
        "column, value",
        [(4, 1.0), (2, 0.0), (3, 5e-4), (4, -1.0), (2, -0.5)],
        ids=["rho=1", "sigma_x=0", "sigma_y=5e-4", "rho=-1", "sigma_x<0"],
    )
    def test_covariance_rule_names_the_byte_offset(self, tmp_path, column, value):
        # Record columns: offset_x, offset_y, sigma_x, sigma_y, rho, r, g, b.
        f = f32_field(np.random.default_rng(6), 4, 3)
        p = tmp_path / "f.gsf"
        fileio.save_gsf(p, f)
        data = bytearray(p.read_bytes())
        at = 21 + 4 * (8 * 7 + column)  # record 7
        data[at : at + 4] = struct.pack("<f", value)
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="record 7") as exc:
            fileio.load_gsf(p)
        assert exc.value.offset == at

    def test_covariance_bounds_survive_the_f32_round_trip(self, tmp_path):
        # The extreme valid values still load after rounding to f32.
        f = f32_field(np.random.default_rng(7), 3, 2)
        sigmas = f.sigmas.copy()
        sigmas[0] = SIGMA_MIN
        rhos = f.rhos.copy()
        rhos[:2] = RHO_MAX, -RHO_MAX
        p = tmp_path / "f.gsf"
        fileio.save_gsf(p, dataclasses.replace(f, sigmas=sigmas, rhos=rhos))
        back = fileio.load_gsf(p)
        assert np.all(back.sigmas[0] >= SIGMA_MIN)
        assert np.all(np.abs(back.rhos[:2]) <= RHO_MAX)

    @staticmethod
    def with_timestamp(tmp_path, ts):
        """A saved GSF whose header timestamp (bytes 13-16) holds ts."""
        p = tmp_path / "f.gsf"
        fileio.save_gsf(p, f32_field(np.random.default_rng(8), 3, 2))
        data = bytearray(p.read_bytes())
        data[13:17] = struct.pack("<f", ts)
        p.write_bytes(bytes(data))
        return p

    @pytest.mark.parametrize("ts", [np.nan, np.inf, -np.inf, -0.5, 1.5])
    def test_timestamp_outside_the_unit_interval_names_offset_13(self, tmp_path, ts):
        with pytest.raises(FormatError, match="timestamp") as exc:
            fileio.load_gsf(self.with_timestamp(tmp_path, ts))
        assert exc.value.offset == 13

    @pytest.mark.parametrize("ts", [0.0, 0.25, 1.0])
    def test_timestamp_in_the_unit_interval_loads(self, tmp_path, ts):
        assert fileio.load_gsf(self.with_timestamp(tmp_path, ts)).timestamp == ts


class TestFlo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        vec = rng.normal(0, 5, (6, 8, 2)).astype(np.float32).astype(np.float64)
        flow = FlowField(vec)
        p = tmp_path / "f.flo"
        fileio.save_flo(p, flow)
        assert np.array_equal(fileio.load_flo(p).vectors, vec)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.flo"
        p.write_bytes(b"\0\0\0\0" + b"\0" * 16)
        with pytest.raises(FormatError):
            fileio.load_flo(p)

    def test_bad_dims(self, tmp_path):
        p = tmp_path / "bad.flo"
        p.write_bytes(struct.pack("<fii", 202021.25, -1, 4))
        with pytest.raises(FormatError):
            fileio.load_flo(p)

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(5)
        flow = FlowField(rng.normal(0, 5, (6, 8, 2)).astype(np.float32).astype(np.float64))
        p = tmp_path / "f.flo"
        fileio.save_flo(p, flow)
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(FormatError):
            fileio.load_flo(p)


class TestFrames:
    def test_frm_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        px = rng.uniform(0, 1, (5, 7, 3)).astype(np.float32).astype(np.float64)
        p = tmp_path / "f.frm"
        fileio.save_frm(p, FrameBuffer(px))
        assert np.array_equal(fileio.load_frm(p).pixels, px)

    def test_frm_bad_magic(self, tmp_path):
        p = tmp_path / "bad.frm"
        p.write_bytes(b"XXXX" + b"\0" * 20)
        with pytest.raises(FormatError):
            fileio.load_frm(p)

    @pytest.mark.parametrize("w, h", [(0, 5), (5, 0), (0, 0)])
    def test_frm_empty_frame(self, tmp_path, w, h):
        p = tmp_path / "empty.frm"
        p.write_bytes(b"FRM1" + struct.pack("<II", w, h))
        with pytest.raises(FormatError) as exc:
            fileio.load_frm(p)
        assert exc.value.offset == 4

    def test_ppm_quantized_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        px = rng.uniform(0, 1, (4, 6, 3))
        p = tmp_path / "f.ppm"
        fileio.save_ppm(p, FrameBuffer(px))
        back = fileio.load_ppm(p).pixels
        assert np.array_equal(back, np.round(px * 255.0) / 255.0)

    def test_ppm_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P5\n1 1\n255\n\0")
        with pytest.raises(FormatError):
            fileio.load_ppm(p)


    def test_ppm_one_line_header(self, tmp_path):
        p = tmp_path / "one_line.ppm"
        p.write_bytes(b"P6 2 2 255\n" + bytes(range(12)))
        px = fileio.load_ppm(p).pixels
        assert np.array_equal(px, np.arange(12.0).reshape(2, 2, 3) / 255.0)

    def test_ppm_header_tokens_may_have_leading_zeros(self, tmp_path):
        # Width 3 written with 5000 leading zeros: longer than int() takes.
        p = tmp_path / "zeros.ppm"
        p.write_bytes(b"P6\n" + b"0" * 5000 + b"3 1\n00255\n" + bytes(range(9)))
        px = fileio.load_ppm(p).pixels
        assert np.array_equal(px, np.arange(9.0).reshape(1, 3, 3) / 255.0)

    def test_ppm_comment_in_header(self, tmp_path):
        p = tmp_path / "comment.ppm"
        p.write_bytes(b"P6\n# c\n2 2\n255\n" + bytes(range(12)))
        px = fileio.load_ppm(p).pixels
        assert np.array_equal(px, np.arange(12.0).reshape(2, 2, 3) / 255.0)

    @pytest.mark.parametrize(
        "data, offset",
        [
            (b"P6\n2 2\n65535\n" + bytes(24), 7),  # maxval other than 255
            (b"P6 2 2 255\n" + bytes(11), 11),  # raster one byte short
            (b"P6\n2 2\n", 7),  # header ends before maxval
            (b"P6 2 2 255", 10),  # no whitespace byte after maxval
            (b"P6 0 2 255\n", 3),  # empty frame
            (b"P6 2x 2 255\n" + bytes(12), 4),  # junk inside a token
            (b"P6\n" + b"9" * 5000 + b" 1\n255\n" + bytes(9), 3),  # no file holds it
            (b"P6 1 " + b"1" * 20 + b" 255\n" + bytes(3), 5),  # 20 digits: above 2**63
        ],
        ids=lambda v: None if isinstance(v, int) or len(v) < 40 else f"{len(v)}-bytes",
    )
    def test_ppm_malformed_header_names_offset(self, tmp_path, data, offset):
        p = tmp_path / "bad.ppm"
        p.write_bytes(data)
        with pytest.raises(FormatError) as exc:
            fileio.load_ppm(p)
        assert exc.value.offset == offset


class TestWeights:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        entries = {
            "a": rng.normal(0, 1, (2, 3, 4)),
            "b": rng.normal(0, 1, 7),
        }
        p = tmp_path / "w.json"
        fileio.save_weights(p, entries)
        back = fileio.load_weights(p)
        assert set(back) == {"a", "b"}
        for k in entries:
            assert np.array_equal(back[k], entries[k])

    def test_bank_round_trip(self, tmp_path):
        bank = default_bank()
        p = tmp_path / "bank.json"
        fileio.save_bank(p, bank)
        assert np.array_equal(fileio.load_bank(p).params, bank.params)

    def test_fuser_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        w = FuserWeights(rng.normal(0, 1, (4, 7, 1, 1)), rng.normal(0, 1, 4))
        p = tmp_path / "fuser.json"
        fileio.save_fuser(p, w)
        back = fileio.load_fuser(p)
        assert np.array_equal(back.weights, w.weights)
        assert np.array_equal(back.bias, w.bias)

    def test_unknown_keys_rejected(self, tmp_path):
        p = tmp_path / "w.json"
        p.write_text('{"format": "gsw1", "entries": {}, "extra": 1}')
        with pytest.raises(FormatError):
            fileio.load_weights(p)
        p.write_text(
            '{"format": "gsw1", "entries": {"a": {"shape": [1], "data": [1.0], "x": 2}}}'
        )
        with pytest.raises(FormatError):
            fileio.load_weights(p)

    def test_bad_format_tag_and_json(self, tmp_path):
        p = tmp_path / "w.json"
        p.write_text('{"format": "other", "entries": {}}')
        with pytest.raises(FormatError):
            fileio.load_weights(p)
        p.write_text("{not json")
        with pytest.raises(FormatError):
            fileio.load_weights(p)

    def test_shape_payload_mismatch(self, tmp_path):
        p = tmp_path / "w.json"
        p.write_text('{"format": "gsw1", "entries": {"a": {"shape": [3], "data": [1.0]}}}')
        with pytest.raises(FormatError):
            fileio.load_weights(p)

    @pytest.mark.parametrize(
        "loader", [fileio.load_weights, fileio.load_bank, fileio.load_fuser]
    )
    @pytest.mark.parametrize(
        "doc",
        [
            pytest.param("[1, 2]", id="top-level-list"),
            pytest.param('{"format": "gsw1", "entries": [1]}', id="entries-list"),
        ]
        + [
            pytest.param(f'{{"format": "gsw1", "entries": {{"bank": {e}}}}}', id=name)
            for name, e in [
                ("entry-number", "5"),
                ("no-shape", '{"data": [1.0]}'),
                ("no-data", '{"shape": [1]}'),
                ("shape-number", '{"shape": 4, "data": [1.0]}'),
                ("negative-shape", '{"shape": [-2, -2], "data": [1, 2, 3, 4]}'),
                ("float-shape", '{"shape": [1.0], "data": [1.0]}'),
                ("bool-shape", '{"shape": [true], "data": [1.0]}'),
                ("string-data", '{"shape": [1], "data": ["x"]}'),
                ("null-data", '{"shape": [1], "data": [null]}'),
                ("scalar-data", '{"shape": [1], "data": 1.0}'),
                ("ragged-data", '{"shape": [3], "data": [[1], [2, 3]]}'),
                ("nested-data", '{"shape": [2, 1], "data": [[1], [2]]}'),
            ]
        ]
        + [pytest.param(DEEP_DOC, id="deep-nesting"), pytest.param(LONG_INT_DOC, id="long-int")],
    )
    def test_malformed_documents_raise_format_error(self, tmp_path, loader, doc):
        # Every malformed document is a FormatError at offset 0, never a
        # stray exception from json or the JSON values.
        p = tmp_path / "w.json"
        p.write_text(doc)
        with pytest.raises(FormatError) as exc:
            loader(p)
        assert exc.value.offset == 0

    @pytest.mark.parametrize(
        "load, entries",
        [
            (fileio.load_bank, {"bank": np.ones(2)}),
            (fileio.load_bank, {"bank": np.ones((2, 3))}),  # duplicate entries
            (fileio.load_fuser, {"fuser.weight": np.ones(2), "fuser.bias": np.ones(2)}),
            (  # even kernel size
                fileio.load_fuser,
                {"fuser.weight": np.ones((2, 7, 2, 2)), "fuser.bias": np.ones(2)},
            ),
        ],
    )
    def test_entries_that_make_no_bank_or_fuser(self, tmp_path, load, entries):
        # load_weights accepts these documents, but they hold no valid bank
        # or fuser; the typed loaders say so with a FormatError.
        p = tmp_path / "w.json"
        fileio.save_weights(p, entries)
        with pytest.raises(FormatError) as exc:
            load(p)
        assert exc.value.offset is not None


class TestUndecodableBytes:
    """A byte pattern numpy or the decoder cannot take as it stands is a
    FormatError with its offset, also when warnings are errors."""

    # A signalling NaN as little-endian float32: casting it to float64
    # raises numpy's "invalid value encountered in cast" warning.
    SNAN = bytes([0x01, 0x00, 0x80, 0x7F])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fmt", ["gsf", "flo", "frm"])
    def test_signalling_nan_payload_raises_format_error(self, tmp_path, fmt):
        rng = np.random.default_rng(10)
        p = tmp_path / f"x.{fmt}"
        save, load, at = {
            "gsf": (
                lambda: fileio.save_gsf(p, f32_field(rng, 3, 2)),
                fileio.load_gsf,
                21,
            ),
            "flo": (
                lambda: fileio.save_flo(p, FlowField(rng.normal(0, 1, (2, 3, 2)))),
                fileio.load_flo,
                12,
            ),
            "frm": (
                lambda: fileio.save_frm(p, FrameBuffer(rng.uniform(0, 1, (2, 3, 3)))),
                fileio.load_frm,
                12,
            ),
        }[fmt]
        save()
        data = bytearray(p.read_bytes())
        data[at : at + 4] = self.SNAN  # the payload's first value
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="non-finite") as exc:
            load(p)
        assert exc.value.offset == at

    @pytest.mark.parametrize(
        "save, load",
        [
            (lambda p: fileio.save_bank(p, default_bank()), fileio.load_bank),
            (
                lambda p: fileio.save_fuser(
                    p, FuserWeights(np.ones((4, 7, 1, 1)), np.zeros(4))
                ),
                fileio.load_fuser,
            ),
            (lambda p: fileio.save_weights(p, {"a": np.ones(3)}), fileio.load_weights),
        ],
        ids=["bank", "fuser", "weights"],
    )
    def test_bytes_that_are_not_utf8_name_their_offset(self, tmp_path, save, load):
        p = tmp_path / "w.json"
        save(p)
        data = bytearray(p.read_bytes())
        at = len(data) // 2
        data[at] = 0xFF  # never part of a UTF-8 sequence
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="not UTF-8") as exc:
            load(p)
        assert exc.value.offset == at


LOADERS = {
    "gsf": fileio.load_gsf,
    "flo": fileio.load_flo,
    "frm": fileio.load_frm,
    "ppm": fileio.load_ppm,
    "json": fileio.load_weights,
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory) -> dict[str, bytes]:
    """One small valid file of each format a loader reads, by suffix."""
    rng = np.random.default_rng(11)
    frame = FrameBuffer(rng.uniform(0, 1, (2, 3, 3)).astype(np.float32).astype(np.float64))
    saves = {
        "gsf": lambda p: fileio.save_gsf(p, f32_field(rng, 3, 2)),
        "flo": lambda p: fileio.save_flo(p, FlowField(np.ones((2, 3, 2)))),
        "frm": lambda p: fileio.save_frm(p, frame),
        "ppm": lambda p: fileio.save_ppm(p, frame),
        "json": lambda p: fileio.save_weights(p, {"a": np.ones((2, 3)), "b": np.ones(2)}),
    }
    out = {}
    for suffix, save in saves.items():
        path = tmp_path_factory.mktemp("valid") / f"f.{suffix}"
        save(path)
        out[suffix] = path.read_bytes()
    return out


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """data truncated, with bytes flipped, with junk inserted, with a run of
    digits (a header token) lengthened by leading digits, or with the run
    nested deep in JSON brackets."""
    kind = draw(st.sampled_from(["truncate", "flip", "insert", "digits", "nest"]))
    at = draw(st.integers(0, len(data)))
    if kind == "truncate":
        return data[:at]
    if kind == "flip":
        out = bytearray(data)
        for i in draw(st.lists(st.integers(0, len(data) - 1), min_size=1, max_size=8)):
            out[i] ^= draw(st.integers(1, 255))
        return bytes(out)
    if kind == "insert":
        return data[:at] + draw(st.binary(min_size=1, max_size=16)) + data[at:]
    runs = [m.span() for m in re.finditer(rb"\d+", data)] or [(at, at)]
    lo, hi = draw(st.sampled_from(runs))
    if kind == "digits":
        # Around 2**63 and Python's 4300-digit integer-string limit.
        count = draw(st.sampled_from([18, 19, 20, 4299, 4301, 6000]))
        new = draw(st.sampled_from([b"0", b"1", b"9"])) * count + data[lo:hi]
    else:
        depth = draw(st.sampled_from([60, 900, 2000]))
        new = b"[" * depth + data[lo:hi] + b"]" * depth
    return data[:lo] + new + data[hi:]


class TestLoaderFuzz:
    """Every loader returns a value or raises FormatError with an offset in
    the file, whatever the bytes."""

    @pytest.mark.parametrize("suffix", sorted(LOADERS))
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.data())
    def test_mutated_files_load_or_raise_format_error(
        self, tmp_path, valid_files, suffix, data
    ):
        blob = data.draw(mutated(valid_files[suffix]))
        p = tmp_path / f"m.{suffix}"
        p.write_bytes(blob)
        try:
            LOADERS[suffix](p)
        except FormatError as exc:
            assert isinstance(exc.offset, int) and 0 <= exc.offset <= len(blob)

    @pytest.mark.parametrize(
        "suffix, header",
        [
            ("gsf", b"GSF1" + struct.pack("<IIBfI", 65536, 32768, 0, 0.0, 2**31)),
            ("flo", struct.pack("<fii", fileio.FLO_MAGIC, 65536, 32768)),
            ("frm", b"FRM1" + struct.pack("<II", 65536, 32768)),
            ("ppm", b"P6\n65536 32768\n255\n"),
            ("json", b'{"format": "gsw1", "entries": {"a": '
             b'{"shape": [65536, 32768], "data": [1]}}}'),
        ],
    )
    def test_huge_declared_size_allocates_nothing(self, tmp_path, suffix, header):
        # About 2**31 pixels declared in a 100-byte file.
        p = tmp_path / f"huge.{suffix}"
        p.write_bytes(header.ljust(100, b" " if suffix == "json" else b"\0"))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError):
                LOADERS[suffix](p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestCsv:
    def test_bench_csv_header(self, tmp_path):
        from splatvid.pipeline import BenchRecord

        p = tmp_path / "bench.csv"
        fileio.save_bench_csv(
            p, [BenchRecord(2, 4.0, 10.0, 1.0, 11.0, 3)]
        )
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "temporal_scale,spatial_scale,shared_ms,per_frame_ms_mean,total_ms,runs"
        assert len(lines) == 2

    def test_stability_csv(self, tmp_path):
        p = tmp_path / "stab.csv"
        r = StabilityReport([0, 1], [1.0, 0.5], [1.0, 0.6], [1.0, 0.9], [1.0, 0.95])
        fileio.save_stability_csv(p, r)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "gap,pixel_pearson,pixel_cosine,cov_pearson,cov_cosine"
        assert len(lines) == 3
