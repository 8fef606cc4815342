import math
import os

import pytest

from pgft.cli import main
from pgft.synth import write_synthetic_sequence


def _read_tsv(path):
    with open(path) as fh:
        header = fh.readline().strip().split("\t")
        rows = [line.strip().split("\t") for line in fh if line.strip()]
    return header, rows


def test_encode_synthetic_smoke(tmp_path, capsys):
    out = tmp_path / "seq.bin"
    rc = main(["encode", "--synthetic", "wave", "--frames", "2",
               "--points", "800", "--q", "8", "--grid-dim", "64",
               "--output", str(out),
               "--synthetic-dir", str(tmp_path / "frames")])
    assert rc == 0
    assert out.exists()
    _, rows = _read_tsv(str(out) + ".stats.tsv")
    assert len(rows) == 2


def test_encode_ignores_threads_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("PGFT_THREADS", "abc")
    rc = main(["encode", "--synthetic", "wave", "--frames", "1",
               "--points", "400", "--q", "8", "--grid-dim", "32",
               "--output", str(tmp_path / "seq.bin"),
               "--synthetic-dir", str(tmp_path / "frames")])
    assert rc == 0


def test_decode_has_no_seed_flag(tmp_path):
    write_synthetic_sequence(tmp_path / "frames", "wave", 1, 200, seed=0)
    with pytest.raises(SystemExit) as info:
        main(["decode", "--bitstream", str(tmp_path / "x.bin"),
              "--geometry", str(tmp_path / "frames"),
              "--output", str(tmp_path / "out"), "--seed", "1"])
    assert info.value.code == 2


def test_encode_missing_q_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["encode", "--synthetic", "wave",
              "--output", str(tmp_path / "x.bin")])
    assert info.value.code == 2


def test_encode_q_zero_rejected(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["encode", "--synthetic", "wave", "--q", "0",
              "--output", str(tmp_path / "x.bin")])
    assert info.value.code == 2


def test_encode_decode_psnr_matches(tmp_path):
    frames_dir = tmp_path / "frames"
    paths = write_synthetic_sequence(frames_dir, "wave", 2, 800, seed=0)
    out = tmp_path / "seq.bin"
    rc = main(["encode", "--input", str(frames_dir), "--q", "8",
               "--grid-dim", "64", "--output", str(out)])
    assert rc == 0
    dec_dir = tmp_path / "decoded"
    rc = main(["decode", "--bitstream", str(out), "--geometry", str(frames_dir),
               "--output", str(dec_dir)])
    assert rc == 0
    assert sorted(os.listdir(dec_dir))[:2] == ["decode.stats.tsv", "decoded_0000.ply"]
    _, enc_rows = _read_tsv(str(out) + ".stats.tsv")
    _, dec_rows = _read_tsv(dec_dir / "decode.stats.tsv")
    for e, d in zip(enc_rows, dec_rows):
        assert e[3] == d[3]  # psnr_y column identical


def test_decode_wrong_geometry_fails_cleanly(tmp_path, capsys):
    frames_dir = tmp_path / "frames"
    other_dir = tmp_path / "other"
    write_synthetic_sequence(frames_dir, "wave", 2, 600, seed=1)
    write_synthetic_sequence(other_dir, "wave", 2, 600, seed=2)
    out = tmp_path / "seq.bin"
    assert main(["encode", "--input", str(frames_dir), "--q", "8",
                 "--grid-dim", "64", "--output", str(out)]) == 0
    dec_dir = tmp_path / "decoded"
    rc = main(["decode", "--bitstream", str(out), "--geometry", str(other_dir),
               "--output", str(dec_dir)])
    assert rc == 1
    assert "geometry mismatch" in capsys.readouterr().err
    assert not dec_dir.exists()  # no partial outputs


def test_decode_truncated_stream_fails_cleanly(tmp_path, capsys):
    frames_dir = tmp_path / "frames"
    write_synthetic_sequence(frames_dir, "wave", 2, 600, seed=3)
    out = tmp_path / "seq.bin"
    assert main(["encode", "--input", str(frames_dir), "--q", "8",
                 "--grid-dim", "64", "--output", str(out)]) == 0
    data = out.read_bytes()
    out.write_bytes(data[: len(data) // 2])
    dec_dir = tmp_path / "decoded"
    rc = main(["decode", "--bitstream", str(out), "--geometry", str(frames_dir),
               "--output", str(dec_dir)])
    assert rc == 1
    assert not dec_dir.exists()


def test_rd_sweep(tmp_path):
    curve = tmp_path / "curve.tsv"
    rc = main(["rd-sweep", "--synthetic", "wave", "--frames", "2",
               "--points", "800", "--grid-dim", "64",
               "--q-list", "2,4,8,16,32", "--output", str(curve),
               "--synthetic-dir", str(tmp_path / "frames")])
    assert rc == 0
    _, rows = _read_tsv(curve)
    assert len(rows) == 5
    bpips = [float(r[1]) for r in rows]
    assert all(b < a for a, b in zip(bpips, bpips[1:]))


def test_rd_sweep_single_q(tmp_path):
    curve = tmp_path / "curve.tsv"
    rc = main(["rd-sweep", "--synthetic", "static", "--frames", "1",
               "--points", "500", "--grid-dim", "64", "--q-list", "8",
               "--output", str(curve),
               "--synthetic-dir", str(tmp_path / "frames")])
    assert rc == 0
    _, rows = _read_tsv(curve)
    assert len(rows) == 1


def test_rd_sweep_duplicate_q_warns(tmp_path, capsys):
    curve = tmp_path / "curve.tsv"
    rc = main(["rd-sweep", "--synthetic", "static", "--frames", "1",
               "--points", "500", "--grid-dim", "64", "--q-list", "8,8",
               "--output", str(curve),
               "--synthetic-dir", str(tmp_path / "frames")])
    assert rc == 0
    assert "duplicate" in capsys.readouterr().err
    _, rows = _read_tsv(curve)
    assert len(rows) == 1


def test_validate_gmrf_synthetic(capsys):
    rc = main(["validate-gmrf", "--synthetic-nodes", "40", "--patches", "399",
               "--seed", "11"])
    assert rc == 0
    out = capsys.readouterr().out
    corr = float(out.strip().splitlines()[-1].split()[-1])
    assert corr > 0.8


def test_validate_gmrf_dataset_mode(tmp_path, capsys):
    frames_dir = tmp_path / "frames"
    write_synthetic_sequence(frames_dir, "wave", 5, 800, seed=4)
    rc = main(["validate-gmrf", "--frames", str(frames_dir), "--patches", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "support correlation" in out


def _write_power_law_curve(path, alpha, beta):
    """Curve file whose RD slopes follow alpha * Q^beta exactly."""
    qs = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    rates = [100.0 / q for q in qs]
    dists = [1.0]
    for i in range(len(qs) - 1):
        lam = alpha * qs[i] ** beta
        dists.append(dists[-1] - lam * (rates[i + 1] - rates[i]))
    with open(path, "w") as fh:
        fh.write("q\tbpip\tpsnr_y\tpsnr_u\tpsnr_v\n")
        for q, r, d in zip(qs, rates, dists):
            p = 10.0 * math.log10(255.0 ** 2 / d)
            fh.write(f"{q}\t{r}\t{p:.12f}\t{p:.12f}\t{p:.12f}\n")


def test_fit_lambda_single_row(tmp_path, capsys):
    curve = tmp_path / "one.tsv"
    curve.write_text("q\tbpip\tpsnr_y\tpsnr_u\tpsnr_v\n8\t1.0\t40\t40\t40\n")
    rc = main(["fit-lambda", "--curve", str(curve)])
    assert rc == 1
    assert ">= 3" in capsys.readouterr().err


def test_fit_lambda_recovers_model(tmp_path, capsys):
    alpha, beta = 0.0624, 1.6238
    curve = tmp_path / "curve.tsv"
    _write_power_law_curve(curve, alpha, beta)
    assert main(["fit-lambda", "--curve", str(curve)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    got_alpha = float(lines[0].split("=")[1])
    got_beta = float(lines[1].split("=")[1])
    assert got_alpha == pytest.approx(alpha, rel=0.01)
    assert got_beta == pytest.approx(beta, rel=0.01)
