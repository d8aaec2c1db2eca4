"""Every report and file the CLI writes, pinned by its SHA-256.

The digests were recorded before the cost report was streamed and the
writers batched, so they hold the program to the exact bytes it wrote
then.  Each case runs with time.perf_counter pinned (the manifest's wall
time and the search's elapsed time read it) and with relative input paths,
so the bytes do not depend on the run.  Each case runs at the default
kernels.CHUNK_ROWS, at 3, which moves every batch boundary, and at 16,
where a transform of m = 5 to 7 runs columns on both sides of the chunk.
"""

import ctypes
import glob
import hashlib
import os

import numpy as np
import pytest

from qmuxopt import kernels, mux, randmux
from qmuxopt.cli import main
from qmuxopt.muxio import save_qmux

FORMATS = ("text", "json", "csv")

# (name, argv) of each case; inputs are made by _inputs.
SEARCHES = [
    ("opt-fpqf-m5", ["optimize", "full5.qmux"]),
    ("opt-kqf-m5", ["optimize", "full5.qmux", "--family", "kqf"]),
    ("opt-fpqf-m7", ["optimize", "full7.qmux"]),
    ("opt-fpqf-rot", ["optimize", "rot4.qmux"]),
    ("opt-kqf-rot", ["optimize", "rot4.qmux", "--family", "kqf"]),
    ("rand-fpqf-m7", ["optimize", "full7.qmux", "--mode", "random", "--samples", "3",
                      "--seed", "2"]),
    ("rand-kqf-m7", ["optimize", "full7.qmux", "--family", "kqf", "--mode", "random",
                     "--samples", "5", "--seed", "4"]),
    ("rand-kqf-json-m6", ["optimize", "full6.json", "--family", "kqf", "--mode", "random",
                          "--samples", "2", "--seed", "1"]),
    ("cost-m5", ["cost", "full5.qmux"]),
    ("cost-m7", ["cost", "full7.qmux"]),
    ("cost-rot", ["cost", "rot4.qmux"]),
    ("cost-kqf-m7", ["cost", "kqf7.qmux"]),
    ("cost-fpqf-m7", ["cost", "fpqf7.json"]),
    ("cost-identities", ["cost", "ident3.qmux"]),
    ("classical-fprm", ["classical", "0x6F0A", "--family", "fprm"]),
    ("classical-krm", ["classical", "0x6F0A", "--family", "krm", "--top", "9"]),
]
REPORTS = [(f"{name}-{fmt}", argv + ["--format", fmt]) for name, argv in SEARCHES
           for fmt in FORMATS]
GENERATED = [
    ("gen-full-m6.qmux", ["--controls", "6", "--seed", "4"]),
    ("gen-full-m6.json", ["--controls", "6", "--seed", "4"]),
    ("gen-rot-m5.qmux", ["--controls", "5", "--seed", "9", "--pool",
                         "custom:X,RX(0.3),M(0,0,0,-1,0,-1,0,0),RZ(-1.25)"]),
    ("gen-nvv-m4.json", ["--controls", "4", "--seed", "0", "--pool", "nvv"]),
]

DIGESTS = {
    "opt-fpqf-m5-text": "6c70e5f3c75d71af624849077a37dee0cc6c695bffc2006bd111098ccfb65559",
    "opt-fpqf-m5-json": "f5a658254e88a6fd45ed8d080a85eca0837e1be8934dcaa37c42261203b07b03",
    "opt-fpqf-m5-csv": "4225ad10d334d7cda239d9efdad8d7c6088a9331fb2a036e80a3d88459ff28ce",
    "opt-kqf-m5-text": "5d8966c979a679bf0fd3a253e627d7072a2dffefb9d551847676f199e76747cc",
    "opt-kqf-m5-json": "931240ed220fda343898a4a28d0ba55f7f70e480991994d96bc457efc7725711",
    "opt-kqf-m5-csv": "866f0786fffb32d5fd0fc32725941812963a540f987a0b01f9d141b3d6d46244",
    "opt-fpqf-m7-text": "b8cc4c18e7ea649e3398758f3d1abf83067d277e316e29cbcf8525ecad1740c3",
    "opt-fpqf-m7-json": "8365972da74602a64e43027a9244d383f1b3b822e08c5fcf0e8fcef3b959b339",
    "opt-fpqf-m7-csv": "2c3d424041f47e3e2f77e344357583900d5de19f7efa94982dc102fd8e4f4cc2",
    "opt-fpqf-rot-text": "a508f082cd4ffcd6d0161165f605b151a00346127df9cc60d1ca92dbfe1fdaac",
    "opt-fpqf-rot-json": "e81e460bc3379fbada0e6710d9242f1045ced9ce0dcfd2da9bd6dc68da593a65",
    "opt-fpqf-rot-csv": "9f277240386dac1ae1b999f94c8ade39c9a136755be9a21663647c2ccc1b1768",
    "opt-kqf-rot-text": "0ea6078efa93ace485f9dc626d440a864bc5c037604f1abbc15a3cc33b4b5b5d",
    "opt-kqf-rot-json": "1697f4b5f4729c3c5f41971e131c1e0ee675995c0ea2ad17879d12fb8bd8af52",
    "opt-kqf-rot-csv": "5433cced100e13e31eb13402f6381d989cb8dd9ccfa372e9d31adc0f91163fc0",
    "rand-fpqf-m7-text": "7d9f33e14091f88a8cdcda1bd6595af315341d422472be7565f20edf39077d3d",
    "rand-fpqf-m7-json": "4a3399eec3f09f0740f107f880176754b913bf4ec1ad49b73464d6fa1c2b6581",
    "rand-fpqf-m7-csv": "4f98e288d4d168ebcf00657507e42aaff188dc275766d58de0743df931b4c2b1",
    "rand-kqf-m7-text": "a6dd85dc6ce804a3c5a463001630d90a5b8d10c49453ba66a194588bd4a48bc5",
    "rand-kqf-m7-json": "4d74a7644811d5dcf99da7abdfe7daabeff27524b9eccb6921ab36b3864391a1",
    "rand-kqf-m7-csv": "e4afc38120a61c494c1f15213a8aa90b10003b879101f71808a1bec6cb73323d",
    "rand-kqf-json-m6-text": "59b2986666b6323cb7af2c1e235324b47b041dc460b3b9b0949c55820a99756f",
    "rand-kqf-json-m6-json": "37a7b6560e5c5553215c7c1e6fef04f22631a01329ab7d01ebe9b38d648de690",
    "rand-kqf-json-m6-csv": "578bbef75f15814b019a289d6e27fdf43771ed845ad5535abb5ba61903452a7f",
    "cost-m5-text": "203a4b63197d073012ea779fc48040de8d5875a4b96771c0f7cae199510a7acb",
    "cost-m5-json": "8a2c3ab970a1d63894582c6e7168e4295ed59120004649db014ae054baf79b0f",
    "cost-m5-csv": "ccda11c20a0a9aec3c6199df255db7c833465bf1c0f36505d82d83cbfbddce13",
    "cost-m7-text": "44b139d087f9158d1cc5fd5bc3c0b7de6e5a09f342a84d7e784565c0d5076bf4",
    "cost-m7-json": "94fec5a1cf3166077aee3c0bf397b999917b0d01cced1b76294321c3ca38b890",
    "cost-m7-csv": "afa7c20f702b2bb8d8a75c79408110b36b179a798598a7074f19aa051fb1df78",
    "cost-rot-text": "be5756925b5fe57cabbc8606bf204c92ca168488873152d8838e2fd6af737416",
    "cost-rot-json": "3bc97b66ab26943d6cb3a4857b43a06882b316900bcda5f58e8941d30996f4dd",
    "cost-rot-csv": "58739480dc4d9639cbb192d06ed596a4bd1e6a0af16b5894f3a8429ffa836e2e",
    "cost-kqf-m7-text": "261e1b1cb58c52d5854cf6fc502c57d7fa33aeaef67926197d929fd17eec3ac5",
    "cost-kqf-m7-json": "50e50f2a253d13aa91e3c69d5db1753b43fa2f4e58fdd77e544d2bb124d8224a",
    "cost-kqf-m7-csv": "52cfe1845f6c4388502cb6b8879198a66acfc715f12210fc8efe83a3429ba994",
    "cost-fpqf-m7-text": "3b6d7419a95008a4b5a8ab5a21af99e6fa6ff867e3e1cf7323d4fb6325b14a60",
    "cost-fpqf-m7-json": "c620e865857281be6897d9e55cec6dc7518e89118b13a1b41cbe0bec50bb61ba",
    "cost-fpqf-m7-csv": "c204acbe6aa30dc4d28e77cc1e2ed4d514f1340599c6c755c199d9282fe9e1d9",
    "cost-identities-text": "dce3473e88599b6eb9327164b826c073d702539c74e557893715fdeec6729811",
    "cost-identities-json": "7faf0637bc6d43aa7b3c6785760d5f8ce45144c9f9682b1fd53eba9fb6efac3c",
    "cost-identities-csv": "c0a19bd80632db73e82a02695050161dd45efa645c03dbb6eb0130640111ce6a",
    "classical-fprm-text": "3bf6856eb83be0326562c9b13c69c5d2176aa9376e070eb9ff1e7742a552d297",
    "classical-fprm-json": "a1aeec25293a2da08c07221bfcf1d31fe1254fa2029d82fad9a90b43cfbc74ab",
    "classical-fprm-csv": "096aff5f1086527edf2c021aee50b36229eab819b77efff5a69e452fad0b0dba",
    "classical-krm-text": "b5ac3a7623c96828178429efee93ec4baae36bd8d3852fc41221cc37175dc6a6",
    "classical-krm-json": "c27ce626ce24c24ad739e1dbd476ba4bf1153c37f49046d769a38f7a03d548fa",
    "classical-krm-csv": "7e97501c49766dcfecd2b3ab0e5f08e00f534810c526e92e7db063f10def4c3e",
    "gen-full-m6.qmux": "4a115c5c6906d006e7a84d34d827630b458304b760842ac621615d6270e44480",
    "gen-full-m6.json": "17983147187fbdc18d48e84e2530a1219fbda9cb20a193dd7e316c5fe362b1bf",
    "gen-rot-m5.qmux": "c0d13ce2ad40bef38f9b9dd5043152a92166642132a01acae310b613168a59ce",
    "gen-nvv-m4.json": "b3e26048684f44607461ccac63b388a07c8d302ec49435093b6c3a89dc8b9972",
}


def _inputs(directory) -> None:
    """Write the cases' input files into `directory`."""
    full5 = randmux.generate(5, randmux.POOL_FULL, 3)
    full7 = randmux.generate(7, randmux.POOL_FULL, 5)
    rotations = randmux.resolve_pool("custom:X,I,RX(0.3),H")
    save_qmux(full5, directory / "full5.qmux")
    save_qmux(full7, directory / "full7.qmux")
    save_qmux(randmux.generate(6, randmux.POOL_FULL, 8), directory / "full6.json")
    save_qmux(randmux.generate(4, rotations, 5), directory / "rot4.qmux")
    save_qmux(mux.forward_transform(full7, "0212120"), directory / "kqf7.qmux")
    save_qmux(mux.forward_transform(full7, "0110100"), directory / "fpqf7.json")
    save_qmux(randmux.generate(3, randmux.resolve_pool("custom:I"), 0),
              directory / "ident3.qmux")


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    _inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("time.perf_counter", lambda: 0.0)
    return tmp_path


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digests(capsys) -> dict:
    """name -> SHA-256 of every case's report or file, run in the current
    directory (see workdir)."""
    out = {}
    for name, argv in REPORTS:
        assert main(argv) == 0, name
        out[name] = _digest(capsys.readouterr().out.encode())
    for name, argv in GENERATED:
        assert main(["generate", *argv, "--out", name]) == 0, name
        capsys.readouterr()
        with open(name, "rb") as fh:
            out[name] = _digest(fh.read())
    return out


def _blas_kernel() -> str:
    """The kernel that numpy's bundled OpenBLAS dispatched on this host, as
    its scipy_openblas_get_corename64_ names it, and OPENBLAS_CORETYPE if
    it is set: the float products in optimize's literal tokens round as
    that kernel rounds."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        library = ctypes.CDLL(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))[0])
        corename = library.scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):  # no such library, or no such symbol
        name = "unknown"
    else:
        corename.restype = ctypes.c_char_p
        name = corename().decode()
    forced = os.environ.get("OPENBLAS_CORETYPE")
    return name if forced is None else f"{name} (OPENBLAS_CORETYPE={forced})"


@pytest.mark.parametrize("chunks", [3, 16, 4096])
def test_reports_and_files_keep_their_pinned_bytes(monkeypatch, capsys, workdir, chunks):
    monkeypatch.setattr(kernels, "CHUNK_ROWS", chunks)
    assert report_digests(capsys) == DIGESTS, (
        f"the digests were pinned under OpenBLAS's SkylakeX kernel; this run used "
        f"{_blas_kernel()}"
    )
