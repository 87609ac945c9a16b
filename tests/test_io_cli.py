import json
import os
import time

import numpy as np
import numpy.testing as npt
import pytest

from specal import io
from specal.baselines import fit_pcr, predict_multivariate
from specal.calibrate import fit_ols
from specal.cli import main
from specal.errors import AlignmentError, ParseError
from specal.methods import FitSpec, make_strategy
from specal.model import ConcentrationMatrix, SpectraSet, assemble_design
from specal.predict import predict_concentrations
from specal.simulate import SimConfig, generate_dataset, WEAK_PHI


@pytest.fixture
def dataset(tmp_path):
    cfg = SimConfig(seed=3, num_samples=12, phi=WEAK_PHI)
    spectra, conc, truth = generate_dataset(cfg)
    ids = tuple(f"s{i + 1:02d}" for i in range(12))
    spectra = SpectraSet(grid=spectra.grid, absorbance=spectra.absorbance,
                         sample_ids=ids)
    conc = ConcentrationMatrix(values=conc.values, sample_ids=ids,
                               analytes=("a", "b", "c"))
    spath = tmp_path / "spectra.csv"
    cpath = tmp_path / "conc.csv"
    io.save_spectra(spectra, spath)
    io.save_concentrations(conc, cpath)
    return spectra, conc, truth, spath, cpath


class TestSpectraIo:
    def test_round_trip_exact(self, dataset):
        spectra, _, _, spath, _ = dataset
        loaded = io.load_spectra(spath)
        npt.assert_array_equal(loaded.grid, spectra.grid)
        npt.assert_array_equal(loaded.absorbance, spectra.absorbance)
        assert loaded.sample_ids == spectra.sample_ids

    def test_three_point_round_trip_bytes(self, tmp_path):
        spectra = SpectraSet(
            grid=np.array([1.0, 2.5, 4.0]),
            absorbance=np.array([[0.1, 0.2, 0.3], [1 / 3, 2 / 7, 0.5]]).T.T,
            sample_ids=("u", "v"),
        )
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        io.save_spectra(spectra, first)
        io.save_spectra(io.load_spectra(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_duplicate_wavelength_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wavelength,s1\n1.0,0.5\n1.0,0.6\n2.0,0.7\n")
        with pytest.raises(ParseError, match="entry 1"):
            io.load_spectra(path)

    def test_non_numeric_cell_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wavelength,s1,s2\n1.0,0.5,0.1\n2.0,oops,0.2\n")
        with pytest.raises(ParseError, match="row 3, column 2"):
            io.load_spectra(path)

    def test_transpose_layout(self, tmp_path, dataset):
        spectra, _, _, _, _ = dataset
        path = tmp_path / "flipped.csv"
        header = ["sample"] + [repr(float(w)) for w in spectra.grid]
        lines = [",".join(header)]
        for i, sid in enumerate(spectra.sample_ids):
            lines.append(
                ",".join([sid] + [repr(float(v)) for v in spectra.absorbance[i]])
            )
        path.write_text("\n".join(lines) + "\n")
        loaded = io.load_spectra(path)
        npt.assert_array_equal(loaded.absorbance, spectra.absorbance)
        npt.assert_array_equal(loaded.grid, spectra.grid)

    def test_tecator_shaped_load_is_fast(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = np.linspace(850.0, 1050.0, 100)
        spectra = SpectraSet(grid=grid, absorbance=rng.standard_normal((240, 100)))
        path = tmp_path / "big.csv"
        io.save_spectra(spectra, path)
        start = time.perf_counter()
        loaded = io.load_spectra(path)
        elapsed = time.perf_counter() - start
        assert loaded.absorbance.shape == (240, 100)
        assert elapsed < 1.0

    def test_loader_holds_a_batch_once(self, tmp_path):
        import tracemalloc

        # 2000 spectra of 401 wavelengths, the size of a prediction batch:
        # a second table or a copy of the absorbance would pass 2x.
        rng = np.random.default_rng(1)
        path = tmp_path / "batch.csv"
        with open(path, "w", newline="") as handle:
            handle.write(",".join(["wavelength", *(f"p{j}" for j in range(2000))])
                         + "\n")
            np.savetxt(handle, np.column_stack([np.arange(350.0, 751.0),
                                                rng.random((401, 2000))]),
                       fmt="%.6f", delimiter=",")
        tracemalloc.start()
        try:
            loaded = io.load_spectra(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.absorbance.shape == (2000, 401)
        assert peak < 1.4 * (loaded.absorbance.nbytes + loaded.grid.nbytes)

    def test_loaded_absorbance_is_adopted(self, tmp_path, monkeypatch):
        filled = []

        def read_table(*args, **kwargs):
            table = read(*args, **kwargs)
            filled.append(table[2][1])
            return table

        read = io._read_table
        monkeypatch.setattr(io, "_read_table", read_table)
        path = tmp_path / "spectra.csv"
        path.write_text("wavelength,s1,s2\n"
                        + "".join(f"{w},0.5,0.25\n" for w in range(1, 80)))
        absorbance = io.load_spectra(path).absorbance
        assert absorbance is filled[0]
        assert absorbance.flags.c_contiguous and not absorbance.flags.writeable
        assert absorbance.base is None


class TestConcentrationIo:
    def test_permuted_ids_realign(self, dataset, tmp_path):
        spectra, conc, _, _, _ = dataset
        path = tmp_path / "permuted.csv"
        order = np.random.default_rng(1).permutation(12)
        lines = ["sample,a,b,c"]
        for i in order:
            lines.append(
                ",".join([conc.sample_ids[i]]
                         + [repr(float(v)) for v in conc.values[i]])
            )
        path.write_text("\n".join(lines) + "\n")
        loaded = io.load_concentrations(path, spectra)
        npt.assert_array_equal(loaded.values, conc.values)
        assert loaded.sample_ids == spectra.sample_ids

    def test_unknown_id_raises_alignment(self, dataset, tmp_path):
        spectra, conc, _, _, cpath = dataset
        text = cpath.read_text().replace("s05", "zz")
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        with pytest.raises(AlignmentError):
            io.load_concentrations(bad, spectra)

    def test_negative_concentration_warns_but_loads(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("sample,a\ns1,-0.2\ns2,0.4\ns3,0.6\n")
        with pytest.warns(UserWarning):
            conc = io.load_concentrations(path)
        assert conc.values[0, 0] == -0.2


# One small table per loader; "{x}" marks the cell at file row 3, column 2.
# Filling it with two cells makes that row ragged.
LOADER_TABLES = {
    "wide": ("wavelength,s1,s2\n1.0,0.5,0.1\n2.0,{x},0.2\n3.0,0.4,0.3\n",
             lambda path: io.load_spectra(path).absorbance[0, 1]),
    "transposed": ("sample,1.0,2.0,3.0\np1,0.5,0.1,0.2\np2,{x},0.2,0.3\n",
                   lambda path: io.load_spectra(path).absorbance[1, 0]),
    "concentrations": ("sample,a,b\ns1,0.5,0.5\ns2,{x},0.75\n",
                       lambda path: io.load_concentrations(path).values[1, 0]),
    "value-table": ("sample,a,flag\np1,0.1,yes\np2,{x},no\n",
                    lambda path: io.load_value_table(path, columns=("a",))[2][1, 0]),
    "spread": ("analyte,s\na,0.1\nb,{x}\n",
               lambda path: io.load_spread(path)[1][1]),
}


@pytest.mark.parametrize("loader", sorted(LOADER_TABLES))
@pytest.mark.parametrize("cell, message", [
    ("oops", "non-numeric cell at row 3, column 2: 'oops'"),
    ("inf", "non-finite cell at row 3, column 2"),
    ("0.25,0.5", "row 3 has"),
])
def test_loader_cell_faults_name_the_file_position(tmp_path, loader, cell, message):
    template, load = LOADER_TABLES[loader]
    path = tmp_path / "table.csv"
    path.write_text(template.format(x=cell))
    with pytest.raises(ParseError, match=message):
        load(path)


@pytest.mark.parametrize("loader", sorted(LOADER_TABLES))
def test_loader_accepts_whitespace_padded_number(tmp_path, loader):
    template, load = LOADER_TABLES[loader]
    path = tmp_path / "table.csv"
    path.write_text(template.format(x=" 0.25 "))
    assert load(path) == 0.25


# Cells that float() reads and numpy's reader refuses go through the scan.
@pytest.mark.parametrize("loader", sorted(LOADER_TABLES))
@pytest.mark.parametrize("cell, value", [
    ("1_0", 10.0), ('"0.25"', 0.25), ("١", 1.0), ('"0.25\r"', 0.25),
], ids=["underscore", "quoted", "arabic-indic", "quoted-cr"])
def test_loader_reads_cells_only_float_accepts(tmp_path, loader, cell, value):
    template, load = LOADER_TABLES[loader]
    path = tmp_path / "table.csv"
    path.write_text(template.format(x=cell), newline="")
    assert load(path) == value


LINE_ENDINGS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "cr": lambda text: text.replace("\n", "\r"),
    "blank-lines": lambda text: text.replace("\n", "\n\n\r\n"),
}


@pytest.mark.parametrize("loader", sorted(LOADER_TABLES))
@pytest.mark.parametrize("ending", sorted(LINE_ENDINGS))
def test_plain_tables_skip_the_cell_scan(tmp_path, monkeypatch, loader, ending):
    template, load = LOADER_TABLES[loader]
    path = tmp_path / "table.csv"
    path.write_text(LINE_ENDINGS[ending](template.format(x="0.25")), newline="")
    monkeypatch.setattr(io, "_scan", None)
    assert load(path) == 0.25


@pytest.mark.parametrize("loader", sorted(LOADER_TABLES))
@pytest.mark.parametrize("ending", sorted(LINE_ENDINGS))
def test_cell_faults_keep_their_position_across_line_endings(tmp_path, loader,
                                                             ending):
    template, load = LOADER_TABLES[loader]
    path = tmp_path / "table.csv"
    path.write_text(LINE_ENDINGS[ending](template.format(x="oops")), newline="")
    with pytest.raises(ParseError,
                       match="non-numeric cell at row 3, column 2: 'oops'"):
        load(path)


@pytest.mark.parametrize("loader", sorted(LOADER_TABLES))
def test_information_separator_is_not_whitespace(tmp_path, loader):
    # numpy strips \x1c-\x1f around a number; float() refuses them.
    template, load = LOADER_TABLES[loader]
    path = tmp_path / "table.csv"
    path.write_text(template.format(x="0.25\x1c"))
    with pytest.raises(ParseError,
                       match=r"non-numeric cell at row 3, column 2: '0.25\\x1c'"):
        load(path)


# A trailing extra cell lies outside the columns read, where a column
# subset would silently drop it; rows that all carry one are ragged too.
@pytest.mark.parametrize("text, load, message", [
    ("sample,a,b\ns1,0.5,0.5\ns2,0.25,0.75,0.1\n", io.load_concentrations,
     "row 3 has 4 cells, expected 3"),
    ("sample,a,flag\np1,0.1,yes\np2,0.2,no,extra\n",
     lambda path: io.load_value_table(path, columns=("a",)),
     "row 3 has 4 cells, expected 3"),
    ("wavelength,s1\n1.0,0.5,0.1\n2.0,0.4,0.3\n", io.load_spectra,
     "row 2 has 3 cells, expected 2"),
], ids=["concentrations", "value-table", "wide-every-row"])
def test_row_with_an_extra_trailing_cell_is_ragged(tmp_path, text, load, message):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=message):
        load(path)


def test_transposed_ids_are_stripped_and_match_concentrations(tmp_path):
    spectra_path = tmp_path / "flipped.csv"
    spectra_path.write_text("sample,1.0,2.0,3.0\n p1 ,0.5,0.1,0.2\np2 ,0.3,0.2,0.3\n")
    conc_path = tmp_path / "conc.csv"
    conc_path.write_text("sample,a,b\np2,0.25,0.75\np1,0.5,0.5\n")
    spectra = io.load_spectra(spectra_path)
    assert spectra.sample_ids == ("p1", "p2")
    conc = io.load_concentrations(conc_path, spectra)
    npt.assert_array_equal(conc.values, [[0.5, 0.5], [0.25, 0.75]])


def save_per_sample(spectra, path):
    """``spectra`` in the per-sample layout: one row per sample under a
    header of wavelengths, every number in shortest round-trip form."""
    rows = [["sample", *map(repr, spectra.grid.tolist())]]
    rows += [[sid, *map(repr, row)] for sid, row in
             zip(spectra.sample_ids, spectra.absorbance.tolist())]
    path.write_text("".join(",".join(row) + "\n" for row in rows))


@pytest.mark.parametrize("method", ["ols-k", "ols-ss", "pls"])
def test_per_sample_layout_needs_no_flag(dataset, tmp_path, capsys, method):
    # The first header cell tells the layout, so the same spectra give the
    # same bytes in either layout.
    spectra, _, _, spath, cpath = dataset
    twin = tmp_path / "per_sample.csv"
    save_per_sample(spectra, twin)
    fit = "baselines" if method == "pls" else "calibrate"
    outputs = {}
    for key, path in (("wide", spath), ("per-sample", twin)):
        files = [tmp_path / f"{key}{suffix}" for suffix in (".json", "_s.csv", "_p.csv")]
        cal = ["--spectra", str(path), "--concentrations", str(cpath),
               "--method", method]
        assert main([fit, *cal, "--model-out", str(files[0])]) == 0
        assert main(["jackknife", *cal, "--out", str(files[1])]) == 0
        assert main(["predict", "--model", str(files[0]), "--spectra", str(path),
                     "--s-file", str(files[1]), "--out", str(files[2])]) == 0
        outputs[key] = [file.read_bytes() for file in files], capsys.readouterr()
    assert outputs["per-sample"] == outputs["wide"]


@pytest.mark.parametrize("reader", ["numpy", "scan"])
@pytest.mark.parametrize("header, message", [
    ("sample,a,b", "non-numeric cell at row 1, column 2: 'a' "
                   "(a wide file starts with a 'wavelength' header cell)"),
    ("wavelenght,s1,s2", "non-numeric cell at row 1, column 2: 's1' "
                         "(a wide file starts with a 'wavelength' header cell)"),
    ("sample,1.0,inf", "non-finite cell at row 1, column 3"),
], ids=["names", "misspelt-wavelength", "non-finite"])
def test_header_of_neither_layout_is_a_parse_error(dataset, tmp_path, capsys,
                                                   monkeypatch, reader, header,
                                                   message):
    *_, cpath = dataset
    path, out = tmp_path / "spectra.csv", tmp_path / "m.json"
    path.write_text(header + "\np1,0.5,0.1\np2,0.2,0.3\n")
    if reader == "scan":
        monkeypatch.setattr(io, "_read_plain", lambda *args: None)
    assert main(["calibrate", "--spectra", str(path), "--concentrations",
                 str(cpath), "--method", "ols-k", "--model-out", str(out)]) == 1
    assert capsys.readouterr().err == f"error[parse]: {path}: {message}\n"
    assert not out.exists()


def test_library_warning_is_one_stderr_line(dataset, tmp_path, capsys):
    *_, spath, cpath = dataset
    negative = tmp_path / "negative.csv"
    negative.write_text(cpath.read_text().replace("\ns01,", "\ns01,-", 1))
    assert main(["calibrate", "--spectra", str(spath), "--concentrations",
                 str(negative), "--method", "ols-k",
                 "--model-out", str(tmp_path / "m.json")]) == 0
    assert capsys.readouterr().err == (
        "warning: negative concentration values present\n")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_table_from_a_pipe_is_read_once(tmp_path):
    read_end, write_end = os.pipe()
    os.write(write_end, b'sample,a,b\ns1,"0.5",0.5\ns2,0.25,0.75\n')
    os.close(write_end)
    try:
        conc = io.load_concentrations(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    npt.assert_array_equal(conc.values, [[0.5, 0.5], [0.25, 0.75]])


def test_quoted_names_and_ids_are_unquoted(tmp_path):
    path = tmp_path / "conc.csv"
    path.write_text('"sample","a","b"\n"s1",0.5,0.5\n"s2",0.25,0.75\n')
    conc = io.load_concentrations(path)
    assert conc.sample_ids == ("s1", "s2")
    assert conc.analytes == ("a", "b")
    npt.assert_array_equal(conc.values, [[0.5, 0.5], [0.25, 0.75]])


@pytest.mark.parametrize("text, load", [
    ("sample,a,b\ns1,0.5,0.5\ns1,0.9,0.1\ns2,0.2,0.8\n", io.load_concentrations),
    ("wavelength,s1,s2,s1\n1.0,0.5,0.1,0.2\n2.0,0.4,0.3,0.1\n", io.load_spectra),
    ("sample,1.0,2.0\ns1,0.5,0.1\n s1,0.4,0.3\n", io.load_spectra),
    ("sample,a,b\ns1,0.5,0.5\ns2,0.2,0.8\ns1,0.9,0.1\n", io.load_value_table),
], ids=["concentrations", "wide", "transposed", "value-table"])
def test_repeated_sample_id_is_an_alignment_error(tmp_path, text, load):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(AlignmentError, match=r"repeated sample ids \['s1'\]"):
        load(path)


class TestModelIo:
    def test_functional_round_trip(self, dataset, tmp_path):
        spectra, conc, truth, _, _ = dataset
        model = fit_ols(assemble_design(spectra, conc, truth.basis))
        path = tmp_path / "model.json"
        io.save_model(model, path)
        loaded = io.load_model(path)
        target = SpectraSet(grid=spectra.grid, absorbance=spectra.absorbance[:3])
        a = predict_concentrations(model, target, sum_to=1.0)
        b = predict_concentrations(loaded, target, sum_to=1.0)
        npt.assert_allclose(a, b, atol=1e-12)
        assert loaded.method == model.method
        assert loaded.diagnostics.rss == model.diagnostics.rss

    def test_multivariate_round_trip(self, dataset, tmp_path):
        spectra, conc, _, _, _ = dataset
        model = fit_pcr(spectra.absorbance, conc.values, components=3)
        path = tmp_path / "pcr.json"
        io.save_model(model, path)
        loaded = io.load_model(path)
        npt.assert_allclose(
            predict_multivariate(model, spectra.absorbance),
            predict_multivariate(loaded, spectra.absorbance),
            atol=1e-12,
        )

    def test_closed_total_stored_and_legacy_flag_read(self, dataset, tmp_path):
        spectra, conc, truth, _, _ = dataset
        model = fit_ols(assemble_design(spectra, conc, truth.basis))
        path = tmp_path / "model.json"
        io.save_model(model, path)
        payload = json.loads(path.read_text())
        assert payload["closed_total"] == 1.0
        assert payload["closed_calibration"] is True
        # closure_total reports 0.0 for rows that all sum to exactly zero.
        path.write_text(json.dumps({**payload, "closed_total": 0.0}))
        assert io.load_model(path).closed_total == 0.0
        for flag, total in ((True, 1.0), (False, None)):
            # Files written before closed_total existed carry only the flag.
            legacy = {k: v for k, v in payload.items() if k != "closed_total"}
            legacy["closed_calibration"] = flag
            path.write_text(json.dumps(legacy))
            assert io.load_model(path).closed_total == total

    def test_multivariate_analytes_stored_and_legacy_file_read(self, dataset,
                                                                tmp_path):
        spectra, conc, _, _, _ = dataset
        model = make_strategy(FitSpec(method="pls", components=3)).fit(spectra, conc)
        assert model.analytes == ("a", "b", "c")
        path = tmp_path / "pls.json"
        io.save_model(model, path)
        assert io.load_model(path).analytes == ("a", "b", "c")
        payload = json.loads(path.read_text())
        del payload["analytes"]
        path.write_text(json.dumps(payload))
        assert io.load_model(path).analytes is None

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"schema": 99, "kind": "functional"}))
        with pytest.raises(ParseError):
            io.load_model(path)

    @pytest.mark.parametrize("kind", ["functional", "multivariate"])
    def test_missing_required_field_is_a_parse_error(self, dataset, tmp_path, kind):
        spectra, conc, truth, _, _ = dataset
        model = (fit_ols(assemble_design(spectra, conc, truth.basis))
                 if kind == "functional"
                 else fit_pcr(spectra.absorbance, conc.values, components=3))
        path = tmp_path / "model.json"
        io.save_model(model, path)
        payload = json.loads(path.read_text())
        optional = {"diagnostics", "closed_total", "closed_calibration",
                    "components", "variance_fraction"}
        required = sorted(set(payload) - optional)
        assert {"schema", "kind", "method", "coefficients"} <= set(required)
        for key in required:
            path.write_text(json.dumps({k: v for k, v in payload.items() if k != key}))
            with pytest.raises(ParseError) as excinfo:
                io.load_model(path)
            assert str(path) in str(excinfo.value)
            assert key in str(excinfo.value)

    def test_malformed_field_is_a_parse_error(self, dataset, tmp_path):
        spectra, conc, truth, _, _ = dataset
        path = tmp_path / "model.json"
        functional = fit_ols(assemble_design(spectra, conc, truth.basis))
        multivariate = fit_pcr(spectra.absorbance, conc.values, components=3)
        for model, cases in (
            (functional, (("knots", ["a", "b"]), ("order", None),
                          ("lambda", "big"), ("lambda", -1.0),
                          ("diagnostics", {"rss": 1.0}))),
            (multivariate, (("variance_fraction", "abc"),
                            ("variance_fraction", float("nan")),
                            ("variance_fraction", float("inf")))),
        ):
            io.save_model(model, path)
            payload = json.loads(path.read_text())
            for key, value in cases:
                path.write_text(json.dumps({**payload, key: value}))
                with pytest.raises(ParseError, match=f"model field '{key}'"):
                    io.load_model(path)
        path.write_text("[1, 2]")
        with pytest.raises(ParseError):
            io.load_model(path)


class TestValueTable:
    def test_column_subset_skips_non_numeric(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text(
            "sample,a,a_lo,flag,b\np1,0.1,0.0,false,0.9\np2,0.2,0.1,true,0.8\n"
        )
        ids, names, values = io.load_value_table(path, columns=("a", "b"))
        assert ids == ("p1", "p2")
        npt.assert_array_equal(values, [[0.1, 0.9], [0.2, 0.8]])

    def test_missing_column_raises(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("sample,a\np1,0.1\np2,0.2\n")
        with pytest.raises(AlignmentError):
            io.load_value_table(path, columns=("a", "zz"))


class TestCli:
    def test_calibrate_jackknife_predict_sep(self, dataset, tmp_path):
        _, _, _, spath, cpath = dataset
        model = tmp_path / "model.json"
        curves = tmp_path / "curves.csv"
        spread = tmp_path / "s.csv"
        pred = tmp_path / "pred.csv"
        sep_out = tmp_path / "sep.csv"
        assert main(["calibrate", "--spectra", str(spath), "--concentrations",
                     str(cpath), "--method", "ols-k", "--num-basis", "14",
                     "--model-out", str(model), "--curves-out", str(curves)]) == 0
        assert main(["jackknife", "--spectra", str(spath), "--concentrations",
                     str(cpath), "--method", "ols-k", "--num-basis", "14",
                     "--out", str(spread)]) == 0
        assert main(["predict", "--model", str(model), "--spectra", str(spath),
                     "--s-file", str(spread), "--out", str(pred)]) == 0
        assert main(["sep", "--truth", str(cpath), "--predictions", str(pred),
                     "--out", str(sep_out)]) == 0
        rows = sep_out.read_text().strip().splitlines()
        assert rows[0] == "component,sep"
        assert rows[-1].startswith("overall,")

    def test_inputs_never_mutated(self, dataset, tmp_path):
        _, _, _, spath, cpath = dataset
        before = (spath.read_bytes(), cpath.read_bytes())
        main(["calibrate", "--spectra", str(spath), "--concentrations",
              str(cpath), "--method", "ols-k", "--model-out",
              str(tmp_path / "m.json")])
        assert (spath.read_bytes(), cpath.read_bytes()) == before

    def test_manual_lambda_override(self, dataset, tmp_path):
        _, _, _, spath, cpath = dataset
        model = tmp_path / "ss.json"
        assert main(["calibrate", "--spectra", str(spath), "--concentrations",
                     str(cpath), "--method", "ols-ss", "--lambda", "330",
                     "--model-out", str(model)]) == 0
        payload = json.loads(model.read_text())
        assert payload["lambda"] == 330.0

    def test_error_line_is_machine_parsable(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        code = main(["calibrate", "--spectra", str(missing), "--concentrations",
                     str(missing), "--method", "ols-k", "--model-out",
                     str(tmp_path / "m.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[parse]:")

    def test_unknown_flag_exits_two(self, dataset, tmp_path):
        _, _, _, spath, cpath = dataset
        with pytest.raises(SystemExit) as excinfo:
            main(["calibrate", "--spectra", str(spath), "--concentrations",
                  str(cpath), "--method", "ols-k", "--model-out",
                  str(tmp_path / "m.json"), "--frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["calibrate", "--method", "ols-k", "--components", "3"],
        ["baselines", "--method", "pls", "--num-basis", "14"],
        # Removed: the data decide whether the sum-to-zero block is used.
        ["calibrate", "--method", "ols-k", "--constraint-weight", "0"],
        ["calibrate", "--method", "gls-k", "--gls-augment", "no"],
        # Removed: the first header cell tells the spectra layout.
        ["calibrate", "--method", "ols-k", "--transpose"],
        ["baselines", "--method", "mlr", "--transpose"],
        ["jackknife", "--method", "ols-k", "--transpose"],
        ["predict", "--transpose"],
    ], ids=" ".join)
    def test_flag_the_subcommand_does_not_read_exits_two(self, dataset, tmp_path,
                                                         argv):
        _, _, _, spath, cpath = dataset
        cal = ["--spectra", str(spath), "--concentrations", str(cpath)]
        out = tmp_path / "out"
        if argv[0] == "predict":
            model, spread = tmp_path / "model.json", tmp_path / "s.csv"
            assert main(["calibrate", *cal, "--method", "ols-k",
                         "--model-out", str(model)]) == 0
            assert main(["jackknife", *cal, "--method", "ols-k",
                         "--out", str(spread)]) == 0
            required = ["--model", str(model), "--spectra", str(spath),
                        "--s-file", str(spread), "--out", str(out)]
        else:
            required = [*cal, "--out" if argv[0] == "jackknife" else "--model-out",
                        str(out)]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, *required])
        assert excinfo.value.code == 2
        assert not out.exists()

    def test_cli_is_a_thin_shell(self, dataset, tmp_path):
        # Values written by predict must equal the library computation.
        spectra, conc, truth, spath, cpath = dataset
        model_path = tmp_path / "model.json"
        spread = tmp_path / "s.csv"
        pred = tmp_path / "pred.csv"
        main(["calibrate", "--spectra", str(spath), "--concentrations",
              str(cpath), "--method", "ols-ss", "--lambda", "gcv",
              "--model-out", str(model_path)])
        main(["jackknife", "--spectra", str(spath), "--concentrations",
              str(cpath), "--method", "ols-ss", "--out", str(spread)])
        main(["predict", "--model", str(model_path), "--spectra", str(spath),
              "--s-file", str(spread), "--out", str(pred)])
        _, _, written = io.load_value_table(pred, columns=("a", "b", "c"))
        model = io.load_model(model_path)
        expected = predict_concentrations(
            model,
            SpectraSet(grid=spectra.grid, absorbance=spectra.absorbance),
            sum_to=1.0,
        )
        npt.assert_allclose(written, expected, atol=1e-15)

    def test_percent_unit_twin(self, dataset, tmp_path):
        # Rows summing to 100 are closed just like fractions: the model
        # stores the total, predict pins sums to it and the jackknife folds
        # predict instead of failing as degenerate.
        spectra, conc, _, spath, cpath = dataset
        percent = tmp_path / "percent.csv"
        io.save_concentrations(
            ConcentrationMatrix(values=100.0 * conc.values,
                                sample_ids=conc.sample_ids, analytes=conc.analytes),
            percent)
        outputs = {}
        for key, concentrations in (("frac", cpath), ("pct", percent)):
            model, spread, pred = (tmp_path / f"{key}{suffix}"
                                   for suffix in (".json", "_s.csv", "_pred.csv"))
            cal = ["--spectra", str(spath), "--concentrations", str(concentrations),
                   "--method", "ols-k"]
            assert main(["calibrate", *cal, "--model-out", str(model)]) == 0
            assert main(["jackknife", *cal, "--out", str(spread)]) == 0
            assert main(["predict", "--model", str(model), "--spectra", str(spath),
                         "--s-file", str(spread), "--out", str(pred)]) == 0
            outputs[key] = (json.loads(model.read_text())["closed_total"],
                            io.load_spread(spread)[1],
                            io.load_value_table(pred, columns=("a", "b", "c"))[2])
        assert outputs["frac"][0] == 1.0 and outputs["pct"][0] == 100.0
        npt.assert_allclose(outputs["pct"][2], 100.0 * outputs["frac"][2], rtol=1e-10)
        npt.assert_allclose(outputs["pct"][2].sum(axis=1), 100.0, rtol=1e-12)
        npt.assert_allclose(outputs["pct"][1], 100.0 * outputs["frac"][1], rtol=1e-8)

    @pytest.mark.parametrize("source", [
        ["--jackknife", "--cal-spectra", "SPECTRA", "--cal-concentrations", "CONC"],
        [],
        ["--s-file", "S", "--jackknife"],
        ["--s-file", "S", "--cal-spectra", "SPECTRA"],
        ["--s-file", "S", "--cal-concentrations", "CONC"],
    ], ids=lambda source: " ".join(source) or "no spread file")
    def test_predict_reads_spreads_only_from_s_file(self, dataset, tmp_path,
                                                    source):
        # Spreads come from the jackknife command; predict has no way to
        # compute them itself.
        _, _, _, spath, cpath = dataset
        cal = ["--spectra", str(spath), "--concentrations", str(cpath),
               "--method", "ols-k"]
        model, spread = tmp_path / "model.json", tmp_path / "s.csv"
        assert main(["calibrate", *cal, "--model-out", str(model)]) == 0
        assert main(["jackknife", *cal, "--out", str(spread)]) == 0
        paths = {"SPECTRA": str(spath), "CONC": str(cpath), "S": str(spread)}
        pred = tmp_path / "pred.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["predict", "--model", str(model), "--spectra", str(spath),
                  *(paths.get(arg, arg) for arg in source), "--out", str(pred)])
        assert excinfo.value.code == 2
        assert not pred.exists()

    @pytest.mark.parametrize("flag", [
        ["--lambda-grid", "a:b:c"], ["--lambda-grid", "1:2"],
        ["--lambda-grid", "1:2:3.5"], ["--lambda-grid", "1:inf:5"],
        ["--sum-to", "abc"], ["--sum-to", "nan"], ["--lambda", "nan"],
        # Closed rows leave the total to the closure, so it cannot be dropped.
        ["--sum-to", "none"],
    ])
    def test_malformed_number_is_invalid_parameter(self, dataset, tmp_path,
                                                    capsys, flag):
        _, _, _, spath, cpath = dataset
        # Only the jackknife reads --sum-to.
        command, out = (("jackknife", "--out") if flag[0] == "--sum-to"
                        else ("calibrate", "--model-out"))
        code = main([command, "--spectra", str(spath), "--concentrations",
                     str(cpath), "--method", "ols-ss", *flag,
                     out, str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[invalid-parameter]:")

    def test_predict_rejects_spreads_of_other_analytes(self, dataset, tmp_path,
                                                       capsys):
        _, _, _, spath, cpath = dataset
        model = tmp_path / "model.json"
        spread = tmp_path / "s.csv"
        cal = ["--spectra", str(spath), "--concentrations", str(cpath),
               "--method", "ols-k"]
        assert main(["calibrate", *cal, "--model-out", str(model)]) == 0
        assert main(["jackknife", *cal, "--out", str(spread)]) == 0
        names, s = io.load_spread(spread)
        bad_spreads = {"reversed": (names[::-1], s[::-1]),
                       "renamed": (("fat", "water", "protein"), s)}
        for key, (bad_names, bad_s) in bad_spreads.items():
            io.save_spread(bad_names, bad_s, tmp_path / f"{key}.csv")
        for key in bad_spreads:
            code = main(["predict", "--model", str(model), "--spectra", str(spath),
                         "--s-file", str(tmp_path / f"{key}.csv"),
                         "--out", str(tmp_path / "pred.csv")])
            assert code == 1
            assert capsys.readouterr().err.startswith("error[alignment]:")
        assert not (tmp_path / "pred.csv").exists()


@pytest.mark.parametrize("argv", [
    ["predict", "--c", "nan"], ["predict", "--c", "inf"],
    ["predict", "--sum-to", "none"],
    ["calibrate", "--curve-points", "-1"],
    ["simulate", "--prediction-samples", "0"],
    ["simulate", "--prediction-samples", "-1"],
    ["simulate", "--sigma2", "nan"], ["simulate", "--phi", "inf"],
    # A later --study replaces the dataset study of ``required``.
    ["simulate", "--study", "jackknife", "--replicates", "0"],
    ["simulate", "--study", "bias-variance", "--learning-sets", "0"],
    ["simulate", "--study", "bias-variance", "--prediction-reps", "0"],
    ["simulate", "--study", "jackknife", "--methods", "OLS-K,OLS-Q"],
    ["simulate", "--study", "jackknife", "--replicates", "1", "--methods",
     "OLS-K", "--jobs", "0"],
    ["simulate", "--study", "bias-variance", "--learning-sets", "1",
     "--prediction-reps", "1", "--methods", "OLS-K", "--jobs", "-3"],
], ids=" ".join)
def test_out_of_range_number_exits_before_writing(dataset, tmp_path, capsys, argv):
    _, _, _, spath, cpath = dataset
    cal = ["--spectra", str(spath), "--concentrations", str(cpath),
           "--method", "ols-k"]
    model, spread = tmp_path / "model.json", tmp_path / "s.csv"
    assert main(["calibrate", *cal, "--model-out", str(model)]) == 0
    assert main(["jackknife", *cal, "--out", str(spread)]) == 0
    inputs = sorted(tmp_path.iterdir())
    out = str(tmp_path / "out")
    command, *flag = argv
    required = {
        "predict": ["--model", str(model), "--spectra", str(spath),
                    "--s-file", str(spread), "--out", out],
        "calibrate": [*cal, "--model-out", out,
                      "--curves-out", str(tmp_path / "curves.csv")],
        "simulate": ["--study", "dataset", "--samples", "6", "--out-dir", out],
    }[command]
    capsys.readouterr()
    assert main([command, *required, *flag]) == 1
    assert capsys.readouterr().err.startswith("error[invalid-parameter]:")
    assert sorted(tmp_path.iterdir()) == inputs


@pytest.mark.parametrize("command, method, flag", [
    ("calibrate", "ols-k", ["--lambda", "330"]),
    ("calibrate", "gls-k", ["--lambda-grid", "1:10:3"]),
    ("calibrate", "ols-ss", ["--num-basis", "10"]),
    ("jackknife", "ols-k", ["--lambda", "gcv"]),
    ("jackknife", "pls", ["--sum-to", "1"]),
    ("baselines", "mlr", ["--components", "2"]),
    ("baselines", "mlr", ["--variance-fraction", "0.9"]),
    ("predict", "pls", ["--sum-to", "5"]),
], ids=lambda value: " ".join(value) if isinstance(value, list) else value)
def test_flag_the_method_does_not_read_is_refused(dataset, tmp_path, capsys,
                                                  command, method, flag):
    _, _, _, spath, cpath = dataset
    cal = ["--spectra", str(spath), "--concentrations", str(cpath)]
    out = tmp_path / "out"
    if command == "predict":
        model, spread = tmp_path / "model.json", tmp_path / "s.csv"
        assert main(["baselines", *cal, "--method", method, "--components", "3",
                     "--model-out", str(model)]) == 0
        io.save_spread(("a", "b", "c"), [0.1, 0.2, 0.3], spread)
        argv = ["predict", "--model", str(model), "--spectra", str(spath),
                "--s-file", str(spread), *flag, "--out", str(out)]
    else:
        argv = [command, *cal, "--method", method, *flag,
                "--out" if command == "jackknife" else "--model-out", str(out)]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error[invalid-parameter]: {flag[0]} is not read by method {method}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["jackknife", "baselines"])
@pytest.mark.parametrize("method, flag, category", [
    ("pcr", ["--components", "3", "--variance-fraction", "0.9"],
     "invalid-parameter"),
    ("pcr", ["--variance-fraction", "1.5"], "invalid-parameter"),
    ("pls", ["--variance-fraction", "0"], "invalid-parameter"),
    ("pcr", ["--components", "0"], "invalid-components"),
], ids=lambda value: " ".join(value) if isinstance(value, list) else value)
def test_component_choice_is_checked_before_any_fold(dataset, tmp_path, capsys,
                                                     command, method, flag,
                                                     category):
    # The component rule belongs to the fit configuration, so a jackknife
    # reports it as the fit does, not as a failure of its first fold.
    _, _, _, spath, cpath = dataset
    out = tmp_path / "out"
    argv = [command, "--spectra", str(spath), "--concentrations", str(cpath),
            "--method", method, *flag,
            "--out" if command == "jackknife" else "--model-out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error[{category}]: ")
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("calibrate", ["--lambda-grid", "1:10:3"]),
    ("jackknife", ["--lambda-grid", "1:10:3"]),
], ids=lambda value: " ".join(value) if isinstance(value, list) else value)
def test_selection_flag_beside_a_fixed_lambda_is_refused(dataset, tmp_path, capsys,
                                                         command, flag):
    # A fixed lambda is used as given, so a selection grid would change
    # nothing.
    _, _, _, spath, cpath = dataset
    out = tmp_path / "out"
    argv = [command, "--spectra", str(spath), "--concentrations", str(cpath),
            "--method", "ols-ss", "--lambda", "330", *flag,
            "--out" if command == "jackknife" else "--model-out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error[invalid-parameter]: {flag[0]} is not read with a fixed --lambda\n")
    assert not out.exists()
    argv[argv.index("330")] = "gcv"
    assert main(argv) == 0


@pytest.mark.parametrize("argv", [
    ["predict", "--out", "missing/p.csv"],
    ["predict", "--out", "."],
    ["calibrate", "--model-out", "missing/m.json"],
    ["calibrate", "--model-out", "m2.json", "--curves-out", "missing/c.csv"],
    ["baselines", "--model-out", "missing/m.json"],
    ["jackknife", "--out", "missing/s.csv"],
    ["sep", "--out", "missing/sep.csv"],
    ["simulate", "--out-dir", "model.json"],
], ids=" ".join)
def test_unwritable_output_is_an_output_error(dataset, tmp_path, capsys, argv):
    # Every output path is checked before any input is read, so a run that
    # cannot write one of its outputs writes none of them.
    _, _, _, spath, cpath = dataset
    cal = ["--spectra", str(spath), "--concentrations", str(cpath),
           "--method", "ols-k"]
    model, spread = tmp_path / "model.json", tmp_path / "s.csv"
    assert main(["calibrate", *cal, "--model-out", str(model)]) == 0
    assert main(["jackknife", *cal, "--out", str(spread)]) == 0
    command, *flags = argv
    required = {
        "predict": ["--model", str(model), "--spectra", str(spath),
                    "--s-file", str(spread)],
        "calibrate": cal,
        "baselines": [*cal[:-1], "mlr"],
        "jackknife": cal,
        "sep": ["--truth", str(cpath), "--predictions", str(cpath)],
        "simulate": ["--study", "dataset", "--samples", "6"],
    }[command]
    outputs = [str(tmp_path / item) if k % 2 else item
               for k, item in enumerate(flags)]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main([command, *required, *outputs]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[output]: cannot ")
    assert err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_open_rounded_walkthrough_predicts_near_truth(tmp_path):
    # The walkthrough data with concentrations rounded to 4 decimals: rows
    # sum to 0.9999 or 1, so they are open and the fit leaves the
    # sum-to-zero block out.  With the block, every p1 estimate was about
    # -10,892.
    data = tmp_path / "data"
    assert main(["simulate", "--study", "dataset", "--scenario", "weak",
                 "--samples", "20", "--seed", "1", "--out-dir", str(data)]) == 0
    ids, analytes, y = io.load_value_table(data / "cal_concentrations.csv")
    rounded = tmp_path / "rounded.csv"
    io.save_concentrations(ConcentrationMatrix(values=np.round(y, 4), sample_ids=ids,
                                               analytes=analytes), rounded)
    cal = ["--spectra", str(data / "cal_spectra.csv"), "--concentrations",
           str(rounded), "--method", "ols-k", "--num-basis", "14"]
    model, spread, pred = (tmp_path / name for name in ("m.json", "s.csv", "p.csv"))
    assert main(["calibrate", *cal, "--model-out", str(model)]) == 0
    assert main(["jackknife", *cal, "--out", str(spread)]) == 0
    predict = ["predict", "--model", str(model), "--spectra",
               str(data / "pred_spectra.csv")]
    assert main([*predict, "--s-file", str(spread), "--out", str(pred)]) == 0
    assert io.load_model(model).closed_total is None
    pred_ids, _, y_hat = io.load_value_table(pred, columns=analytes)
    assert pred_ids[0] == "p1"
    npt.assert_allclose(y_hat[0], [0.633, 0.044, 0.323], atol=1e-3)
    assert np.all((y_hat > -1) & (y_hat < 2))


def test_repeated_concentration_id_exits_with_alignment_error(dataset, tmp_path,
                                                             capsys):
    _, _, _, spath, cpath = dataset
    lines = cpath.read_text().splitlines()
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("\n".join([*lines, lines[1]]) + "\n")
    code = main(["calibrate", "--spectra", str(spath), "--concentrations",
                 str(repeated), "--method", "ols-k",
                 "--model-out", str(tmp_path / "m.json")])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error[alignment]: " + f"{repeated}: repeated sample ids ['s01']")


@pytest.mark.parametrize("table", ["truth", "predictions"])
def test_sep_with_a_repeated_id_exits_with_alignment_error(dataset, tmp_path,
                                                            capsys, table):
    # A repeated truth row would count twice; a repeated prediction row
    # would silently replace the first.
    _, _, _, spath, cpath = dataset
    cal = ["--spectra", str(spath), "--concentrations", str(cpath),
           "--method", "ols-k"]
    model, spread, pred = (tmp_path / name for name in ("m.json", "s.csv", "p.csv"))
    assert main(["calibrate", *cal, "--model-out", str(model)]) == 0
    assert main(["jackknife", *cal, "--out", str(spread)]) == 0
    assert main(["predict", "--model", str(model), "--spectra", str(spath),
                 "--s-file", str(spread), "--out", str(pred)]) == 0
    files = {"truth": cpath, "predictions": pred}
    lines = files[table].read_text().splitlines()
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("\n".join([*lines, lines[1]]) + "\n")
    files[table] = repeated
    out = tmp_path / "sep.csv"
    capsys.readouterr()
    assert main(["sep", "--truth", str(files["truth"]), "--predictions",
                 str(files["predictions"]), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error[alignment]: {repeated}: repeated sample ids ['s01']")
    assert not out.exists()


def predict_with_edited_model(dataset, tmp_path, capsys, edit):
    """stderr of ``predict`` on an ols-k model file that ``edit`` changed,
    once it has exited with status 1 and written no prediction file."""
    _, _, _, spath, cpath = dataset
    cal = ["--spectra", str(spath), "--concentrations", str(cpath),
           "--method", "ols-k"]
    model, spread = tmp_path / "m.json", tmp_path / "s.csv"
    assert main(["calibrate", *cal, "--model-out", str(model)]) == 0
    assert main(["jackknife", *cal, "--out", str(spread)]) == 0
    payload = json.loads(model.read_text())
    edit(payload)
    model.write_text(json.dumps(payload))
    out = tmp_path / "pred.csv"
    capsys.readouterr()
    assert main(["predict", "--model", str(model), "--spectra", str(spath),
                 "--s-file", str(spread), "--out", str(out)]) == 1
    assert not out.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan-knot", "infinite-ends"])
def test_predict_with_non_finite_knots_exits_with_invalid_basis(dataset, tmp_path,
                                                                capsys, bad):
    def edit(payload):
        if bad == "nan-knot":
            payload["knots"][5] = float("nan")
        else:
            payload["knots"][:4] = [-float("inf")] * 4
            payload["knots"][-4:] = [float("inf")] * 4

    err = predict_with_edited_model(dataset, tmp_path, capsys, edit)
    assert err.startswith("error[invalid-basis]: knots must be finite")


@pytest.mark.parametrize("field", ["lambda", "closed_total"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_predict_with_non_finite_model_number_exits_with_parse_error(
        dataset, tmp_path, capsys, field, value):
    err = predict_with_edited_model(dataset, tmp_path, capsys,
                                    lambda payload: payload.update({field: value}))
    assert err.startswith(
        f"error[parse]: {tmp_path / 'm.json'}: model field '{field}': must be finite")


def test_predict_with_coinciding_analyte_curves_exits_with_degenerate_analytes(
        dataset, tmp_path, capsys):
    # Closed rows: the model's predictions are held to sum to 1, and equal
    # analyte curves leave nothing to separate the analytes by.
    def edit(payload):
        rows = payload["coefficients"]
        rows[2:] = [rows[1]] * (len(rows) - 2)

    err = predict_with_edited_model(dataset, tmp_path, capsys, edit)
    assert err.startswith("error[degenerate-analytes]: fitted analyte curves")


def test_non_utf8_inputs_exit_with_parse_error(dataset, tmp_path, capsys):
    _, _, _, spath, cpath = dataset
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(spath.read_bytes().replace(b"s01", "s\xe901".encode("latin-1"), 1))
    model = tmp_path / "model.json"
    assert main(["calibrate", "--spectra", str(latin1), "--concentrations",
                 str(cpath), "--method", "ols-k", "--model-out", str(model)]) == 1
    assert capsys.readouterr().err.startswith(f"error[parse]: {latin1}: not UTF-8")
    assert main(["calibrate", "--spectra", str(spath), "--concentrations",
                 str(cpath), "--method", "ols-k", "--model-out", str(model)]) == 0
    model.write_bytes(model.read_bytes().replace(
        b'"OLS-K"', '"OLS-\xc9"'.encode("latin-1")))
    spread = tmp_path / "s.csv"
    io.save_spread(("a", "b", "c"), [0.1, 0.2, 0.3], spread)
    assert main(["predict", "--model", str(model), "--spectra", str(spath),
                 "--s-file", str(spread), "--out", str(tmp_path / "p.csv")]) == 1
    assert capsys.readouterr().err.startswith(
        f"error[parse]: cannot read model file {model}")


def test_multivariate_predict_checks_spread_names(dataset, tmp_path, capsys):
    _, _, _, spath, cpath = dataset
    cal = ["--spectra", str(spath), "--concentrations", str(cpath),
           "--method", "pls", "--components", "3"]
    model, spread = tmp_path / "pls.json", tmp_path / "s.csv"
    assert main(["baselines", *cal, "--model-out", str(model)]) == 0
    assert main(["jackknife", *cal, "--out", str(spread)]) == 0
    names, s = io.load_spread(spread)
    reversed_spread = tmp_path / "reversed.csv"
    io.save_spread(names[::-1], s[::-1], reversed_spread)
    predict = ["predict", "--model", str(model), "--spectra", str(spath),
               "--out", str(tmp_path / "pred.csv")]
    assert main([*predict, "--s-file", str(reversed_spread)]) == 1
    assert capsys.readouterr().err.startswith("error[alignment]:")
    assert not (tmp_path / "pred.csv").exists()
    # A model file written before analyte names were stored applies the
    # spreads by position, as it always did.
    payload = json.loads(model.read_text())
    del payload["analytes"]
    model.write_text(json.dumps(payload))
    assert main([*predict, "--s-file", str(reversed_spread)]) == 0


@pytest.mark.parametrize("legacy", [False, True])
def test_multivariate_predict_file_is_unchanged_by_row_blocks(dataset, tmp_path,
                                                               legacy):
    # The file the predict command wrote when it built the multivariate
    # report by hand: the linear predictor on the whole batch, spreads
    # named by the spread file and zero residual norms.
    from specal.predict import PredictionReport, confidence_intervals

    spectra, _, _, spath, cpath = dataset
    cal = ["--spectra", str(spath), "--concentrations", str(cpath),
           "--method", "pls", "--components", "3"]
    model, spread = tmp_path / "pls.json", tmp_path / "s.csv"
    assert main(["baselines", *cal, "--model-out", str(model)]) == 0
    assert main(["jackknife", *cal, "--out", str(spread)]) == 0
    if legacy:
        payload = json.loads(model.read_text())
        del payload["analytes"]
        model.write_text(json.dumps(payload))
    rng = np.random.default_rng(31)
    rows = rng.integers(0, spectra.num_samples, 600)
    big = SpectraSet(grid=spectra.grid,
                     absorbance=spectra.absorbance[rows]
                     + 0.01 * rng.standard_normal((600, spectra.grid.size)),
                     sample_ids=tuple(f"p{j}" for j in range(600)))
    bpath = tmp_path / "big.csv"
    io.save_spectra(big, bpath)
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(model), "--spectra", str(bpath),
                 "--s-file", str(spread), "--out", str(out)]) == 0
    names, s = io.load_spread(spread)
    loaded = io.load_spectra(bpath)
    y_hat = predict_multivariate(io.load_model(model), loaded.absorbance)
    expected = tmp_path / "expected.csv"
    io.save_predictions(PredictionReport(
        y_hat=y_hat, s=s, intervals=confidence_intervals(y_hat, s, 1.96),
        c=1.96, residual_norms=np.zeros(600),
        outside_unit_range=np.any((y_hat < 0) | (y_hat > 1), axis=1),
        analytes=tuple(names)), loaded.sample_ids, expected)
    assert out.read_bytes() == expected.read_bytes()
