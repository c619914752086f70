"""Golden digests of `fluxq modes --format json` and `fluxq simulate
--samples 64` over the bundled netlists in every representation and
geometric mode, of `fluxq modes --format table` and `fluxq simulate
--samples 64 --format json` in every representation under the minimal
mode, and of `fluxq analyze`, `fluxq reduce` and `fluxq reduce --format
json` over the bundled netlists; and of `fluxq modes --format json` and
`fluxq simulate` at its defaults (2000 samples, several CSV blocks) in
every representation over `conftest.ladder(n, default_rng(7))` at 32 and
128 nodes, whose geometric modes fall through subnormal magnitudes.

Each case runs `cli.main` in process and hashes (exit code, stdout, stderr)
with the netlist path replaced by `<netlist>`, so a change that claims
byte-identical CLI output is checked here.  After an intended change of
output, regenerate the table with

    PYTHONPATH=src python tests/test_cli_golden.py
"""
import hashlib
import io
import itertools
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import ladder_netlist
from fluxq.cli import main

NETLISTS = Path(__file__).resolve().parent.parent / "netlists"
NAMES = ("passive_lc.cir", "reduced_lc.cir", "active_lc.cir", "wheel.cir")
REPS = ("node", "loop", "extended")
MODES = ("off", "minimal", "allpairs")
COMMANDS = {
    "modes": ("--format", "json"),
    "simulate": ("--samples", "64"),
}
# case id -> (command, netlist, options)
CASES = {
    f"{command}-{name}-{rep}-{mode}": (
        command, name, ("--rep", rep, "--geometric", mode, *COMMANDS[command])
    )
    for command, name, rep, mode in itertools.product(COMMANDS, NAMES, REPS, MODES)
}
# analyze and reduce take no representation or geometric mode
CASES.update(
    {
        f"{command}-{name}-{fmt}": (command, name, ("--format", fmt))
        for command, fmt in (("analyze", "json"), ("reduce", "text"), ("reduce", "json"))
        for name in NAMES
    }
)
# the other output format of modes and simulate, under the minimal mode only
CASES.update(
    {
        f"{command}-{name}-{rep}-minimal-{fmt}": (
            command, name, ("--rep", rep, "--geometric", "minimal", *options)
        )
        for (command, fmt, options), name, rep in itertools.product(
            (
                ("modes", "table", ("--format", "table")),
                ("simulate", "json", ("--samples", "64", "--format", "json")),
            ),
            NAMES,
            REPS,
        )
    }
)
# the seed-7 ladders at the CLI's default flags and samples
LADDERS = (32, 128)
CASES.update(
    {
        f"{command}-ladder{n}-{rep}": (command, f"ladder{n}", ("--rep", rep, *options))
        for (command, options), n, rep in itertools.product(
            (("modes", ("--format", "json")), ("simulate", ())), LADDERS, REPS
        )
    }
)


def _digest(case: str, capsys) -> str:
    command, name, options = CASES[case]
    with tempfile.TemporaryDirectory() as tmp:
        path = NETLISTS / name
        if name.startswith("ladder"):
            path = Path(tmp) / f"{name}.cir"
            n = int(name.removeprefix("ladder"))
            path.write_text(ladder_netlist(n, np.random.default_rng(7)))
        code = main([command, str(path), *options])
    captured = capsys.readouterr()
    blob = "\0".join((str(code), captured.out, captured.err))
    return hashlib.sha256(blob.replace(str(path), "<netlist>").encode()).hexdigest()


GOLDEN = {
    "modes-passive_lc.cir-node-off": "0c331f365833c91ab0bba55702fd029c820522721d29193567993961a93bfdd8",
    "modes-passive_lc.cir-node-minimal": "af810e3320b0e4dd8f9fb8fc12394a8df716edd9fda900dc5645bab02940bd53",
    "modes-passive_lc.cir-node-allpairs": "26161d9439c338ed83c4a672738df7b887625a1e069c421c7f5da7aebf75906c",
    "modes-passive_lc.cir-loop-off": "dd9288401edf18aac92ea41b61a3b98e53ff6a827be778401ca8255d77370d28",
    "modes-passive_lc.cir-loop-minimal": "af459c16ffb87659c4080a12fcbce1f7320787a2bcf718293331fdc4be82e4ae",
    "modes-passive_lc.cir-loop-allpairs": "f82f1e06cc06015d14de2413a9a3476ff5f66101b1654c0960e652ebb245e21b",
    "modes-passive_lc.cir-extended-off": "761db0b8ce3bde4410f1a32f20069743e5f8ead820a3c54cf6c92e8378150c74",
    "modes-passive_lc.cir-extended-minimal": "edc44db6ecd25658539a053f417c3cb1859aa6cbcbcdfb1111da275748770816",
    "modes-passive_lc.cir-extended-allpairs": "e5299a6788deba81d6bd16a7acbd263b500f4598090cb50ab5990060a8391653",
    "modes-reduced_lc.cir-node-off": "c06ebca8949c8b3f276fb8099a4456fef2bca0fa9b636bdaacb3c2f9f23ceed7",
    "modes-reduced_lc.cir-node-minimal": "c06ebca8949c8b3f276fb8099a4456fef2bca0fa9b636bdaacb3c2f9f23ceed7",
    "modes-reduced_lc.cir-node-allpairs": "0526448bd2014c75157aa46f550937388304eebdcace89b53a98a54650d8ed35",
    "modes-reduced_lc.cir-loop-off": "ab330cd4d89f6dd99de6ea67258d3ca0c831fac104b307f9a59b4799b0d2448b",
    "modes-reduced_lc.cir-loop-minimal": "ab330cd4d89f6dd99de6ea67258d3ca0c831fac104b307f9a59b4799b0d2448b",
    "modes-reduced_lc.cir-loop-allpairs": "69caab7d8c505312c384d3a3d8be25ba82b728b636acaf3067f41d1e7273cf07",
    "modes-reduced_lc.cir-extended-off": "62f4feac0b49851716f0dde8d38cb657181e7eedb3988b65fe5db4aa0a502129",
    "modes-reduced_lc.cir-extended-minimal": "62f4feac0b49851716f0dde8d38cb657181e7eedb3988b65fe5db4aa0a502129",
    "modes-reduced_lc.cir-extended-allpairs": "b88da681fe1bd51bb33945ce3066651e5fa9a0ed4c06171f86e58d04e171deed",
    "modes-active_lc.cir-node-off": "9c0d7698aedc5d29c56eb6491e49faf286ef83bea3acd7ed5e966b6e746c695d",
    "modes-active_lc.cir-node-minimal": "9c0d7698aedc5d29c56eb6491e49faf286ef83bea3acd7ed5e966b6e746c695d",
    "modes-active_lc.cir-node-allpairs": "f364225d47cec54864389e1b465c03d222d1267e694455451e0d7b7291acac5a",
    "modes-active_lc.cir-loop-off": "192f9ea2292002102e7361c47dade84c20549b41330cd535928f334fcf7e647e",
    "modes-active_lc.cir-loop-minimal": "192f9ea2292002102e7361c47dade84c20549b41330cd535928f334fcf7e647e",
    "modes-active_lc.cir-loop-allpairs": "de03217180dbd1c2a9d09331de3af1fe1db5009ea590da05715e12cb03ad6de0",
    "modes-active_lc.cir-extended-off": "7aeb82c33ccf00398f46136d9947cc2f9b68feb764ec192bf312915f0fb10b0c",
    "modes-active_lc.cir-extended-minimal": "7aeb82c33ccf00398f46136d9947cc2f9b68feb764ec192bf312915f0fb10b0c",
    "modes-active_lc.cir-extended-allpairs": "e24be23ca087c5003e041680d7bdf1f38ac1f9bbac2f1ecf36b52f8dd50b0fb2",
    "modes-wheel.cir-node-off": "88ab3d44d88e9613b97ad29fdacea5e2583904eb97f79f24f21d6e2654eafadc",
    "modes-wheel.cir-node-minimal": "da38cbf18170ec9a508758a76feae08020a58b69b1b5ba5d85bdc96be7a04fa9",
    "modes-wheel.cir-node-allpairs": "226773f2c853948d59c9b4bbd3b4145bef27532c6af6ebec5e21e683dd6f74e8",
    "modes-wheel.cir-loop-off": "974788dbd0caa6890ae44649955881db39de768e7adfb84b6f6760bcb7487b0e",
    "modes-wheel.cir-loop-minimal": "66fec79675452d375e2ac0c01e9c1827b9f60fc7250fd9e81adfcf288a6efda2",
    "modes-wheel.cir-loop-allpairs": "e6eacd79de803800c71aa41e27ec18c2426db24a44c9b14f0d086118d0bf1710",
    "modes-wheel.cir-extended-off": "b40b22939f72ed8e7e95a53e9d13ff7bb37010ee86cbad80a942a37cdb445801",
    "modes-wheel.cir-extended-minimal": "55d9b061601b37b03d2c8bc6c5b4accaea1754b63155e8dddc0b2a701dc24783",
    "modes-wheel.cir-extended-allpairs": "abdb4b47471d42d934dfc3fca5a71b3dc98f1192c7720d71269233839852710e",
    "simulate-passive_lc.cir-node-off": "0c331f365833c91ab0bba55702fd029c820522721d29193567993961a93bfdd8",
    "simulate-passive_lc.cir-node-minimal": "afba63b3daa17202f7ba2922ee7205688bf570436cae16227c43b2e883f20ac6",
    "simulate-passive_lc.cir-node-allpairs": "0500d813f0da719509d6f7359431ccfe74e7693f8d1c14c929e2080df27346a8",
    "simulate-passive_lc.cir-loop-off": "dd9288401edf18aac92ea41b61a3b98e53ff6a827be778401ca8255d77370d28",
    "simulate-passive_lc.cir-loop-minimal": "9cce6300989aaabb64ebe82d1665ada4a367f827b2ce26fda5e12a5feda1d163",
    "simulate-passive_lc.cir-loop-allpairs": "626602968646d1cab15371f3468b45f2d95cd3e3c2010346c9b95d26c532374a",
    "simulate-passive_lc.cir-extended-off": "761db0b8ce3bde4410f1a32f20069743e5f8ead820a3c54cf6c92e8378150c74",
    "simulate-passive_lc.cir-extended-minimal": "6d2a95d4fecd3dbeb3ab56001095d02f964406a73422a0f2a5043f941a122bac",
    "simulate-passive_lc.cir-extended-allpairs": "b24d6e854e403ddf3c3f42bc225ea0f9d7947886967424cac8025f9121c54e13",
    "simulate-reduced_lc.cir-node-off": "28d292d1e8295a37dd3f6a70057af4f0c6d27e39ae2103677f5fefb9fc2cc540",
    "simulate-reduced_lc.cir-node-minimal": "28d292d1e8295a37dd3f6a70057af4f0c6d27e39ae2103677f5fefb9fc2cc540",
    "simulate-reduced_lc.cir-node-allpairs": "0702e9d8ca95192869e8e713ff0fd93e90ccbae789dbdcf0cf0a21b039e5f600",
    "simulate-reduced_lc.cir-loop-off": "8179fb3020122554f1287ae17e32ccc63b92dbafdb41650e425ed34bcb53fb37",
    "simulate-reduced_lc.cir-loop-minimal": "8179fb3020122554f1287ae17e32ccc63b92dbafdb41650e425ed34bcb53fb37",
    "simulate-reduced_lc.cir-loop-allpairs": "c2be770385343fc42c9bfbb1c9cc84e889b8d540f07e2466de5c8186e8865c25",
    "simulate-reduced_lc.cir-extended-off": "28d292d1e8295a37dd3f6a70057af4f0c6d27e39ae2103677f5fefb9fc2cc540",
    "simulate-reduced_lc.cir-extended-minimal": "28d292d1e8295a37dd3f6a70057af4f0c6d27e39ae2103677f5fefb9fc2cc540",
    "simulate-reduced_lc.cir-extended-allpairs": "0702e9d8ca95192869e8e713ff0fd93e90ccbae789dbdcf0cf0a21b039e5f600",
    "simulate-active_lc.cir-node-off": "21683035aff223572b8557c47be36dfcd22fcb11d21eeb61cb057bd19a4c39aa",
    "simulate-active_lc.cir-node-minimal": "21683035aff223572b8557c47be36dfcd22fcb11d21eeb61cb057bd19a4c39aa",
    "simulate-active_lc.cir-node-allpairs": "b7143a4aae81027f707bf5171db41154f853a4395bf2db542d78dcaa76c6ee8a",
    "simulate-active_lc.cir-loop-off": "37d034982872c454aac72b59ccfee0f85691fac4324c852ea44a53f855358889",
    "simulate-active_lc.cir-loop-minimal": "37d034982872c454aac72b59ccfee0f85691fac4324c852ea44a53f855358889",
    "simulate-active_lc.cir-loop-allpairs": "0b964ccf1f7ddc0e85235f93a83918418f799063a1a96d0bc7cd3cb45524f5e7",
    "simulate-active_lc.cir-extended-off": "21683035aff223572b8557c47be36dfcd22fcb11d21eeb61cb057bd19a4c39aa",
    "simulate-active_lc.cir-extended-minimal": "21683035aff223572b8557c47be36dfcd22fcb11d21eeb61cb057bd19a4c39aa",
    "simulate-active_lc.cir-extended-allpairs": "69f9a4f1b98f6a48a6331fd11b74a32f46fb6971f76c4bc39f9f66846543ef39",
    "simulate-wheel.cir-node-off": "88ab3d44d88e9613b97ad29fdacea5e2583904eb97f79f24f21d6e2654eafadc",
    "simulate-wheel.cir-node-minimal": "ed628b570172cddf152288e23a477206f6d7cfb2b18593bde8fefcde50ec9ae6",
    "simulate-wheel.cir-node-allpairs": "ed628b570172cddf152288e23a477206f6d7cfb2b18593bde8fefcde50ec9ae6",
    "simulate-wheel.cir-loop-off": "974788dbd0caa6890ae44649955881db39de768e7adfb84b6f6760bcb7487b0e",
    "simulate-wheel.cir-loop-minimal": "19f3bfdf810491eb952c3c464f1bb401593999ff94f769838c5ddd5f64d0ad2a",
    "simulate-wheel.cir-loop-allpairs": "c01e5b8f7524e160ed30867487ba7bf60522c72339cdaa9f06a672980f7d150f",
    "simulate-wheel.cir-extended-off": "b40b22939f72ed8e7e95a53e9d13ff7bb37010ee86cbad80a942a37cdb445801",
    "simulate-wheel.cir-extended-minimal": "7a681db49b97b1632aa79f65cc93b590c9366af37afbac8186ecba43e211465e",
    "simulate-wheel.cir-extended-allpairs": "e03070836361f757e320d6fde0922edf98c8d8a04c205e21391802d0a83958a0",
    "analyze-passive_lc.cir-json": "4f851d831846d293227a7a22783564cf89b5dbc0c5f0cc144ef646fe6ef99f93",
    "analyze-reduced_lc.cir-json": "f33193642cde09f37f60d6d643ec206c1d209ad0765c749bf900c1174cf636bb",
    "analyze-active_lc.cir-json": "dea20476199d78e7951e9c1e4827df7e9f36a72bfff6305d0361971135053bba",
    "analyze-wheel.cir-json": "d6b13b0656cc6ad1e0aca82833023b31291010e7439621298df61f553b0ee13f",
    "reduce-passive_lc.cir-text": "388f5a31b4cb4d6b9ec2fb5dd9b46718b66d92c805ab4fa410329408c2d276f2",
    "reduce-reduced_lc.cir-text": "5ceab0868f535fb9db8b7dad145f00d92f5338e4a369fa6a1042aad0ca0c1c79",
    "reduce-active_lc.cir-text": "4ca4057dbaa374e168120b7de729cf03a1fac999992e63e170353a33740f4806",
    "reduce-wheel.cir-text": "1a6bf9613e90aefafb8febcabf48b3fb7ef9e7b1b899d658bf7dc343e327950b",
    "reduce-passive_lc.cir-json": "440a74126d83b4fd59c9f0888a40e39f396dac5ea66280c9269791b3f5d95526",
    "reduce-reduced_lc.cir-json": "594be3bc6341c0d90e365928ae9c0dc6ca12703f9e918602580839e4155a3493",
    "reduce-active_lc.cir-json": "6c29211c867b6d70af231a42d074d5f28c860e7a212d89029d83eb3aa58274e6",
    "reduce-wheel.cir-json": "323a9ecba81f26183d711f8e1be75c6381b69235c864af187e444beebe04c937",
    "modes-passive_lc.cir-node-minimal-table": "179b3e273b49f00da56d94f0a3fa0d4b1727886722ff2b8b643d7b9da4a88658",
    "modes-passive_lc.cir-loop-minimal-table": "fbb28ad7b37d8d039bb1e5c57c8a3ac23f425cf4158a9331197bdd2b40ea8bd8",
    "modes-passive_lc.cir-extended-minimal-table": "17d089ad859d4538a5bbfb0cad73354477e7402e84a6adf7b2b8334711454854",
    "modes-reduced_lc.cir-node-minimal-table": "e0f6a19d49fd3332448a0e473691f7801c1d0873e4a9b3a718f9ec9a94f6561e",
    "modes-reduced_lc.cir-loop-minimal-table": "c3e12b683897924c63832bacbd4e2571474163c8cd2c2995572b69584f4a8022",
    "modes-reduced_lc.cir-extended-minimal-table": "0a9c333b5c29dddd8e52a633eff3f6a6837b8bd7246aaa6d75d3e5ed0babd0c6",
    "modes-active_lc.cir-node-minimal-table": "69a290c3c9268f206a71e5ef8b0538e2c7cd6d104da736d3504b4758a345008d",
    "modes-active_lc.cir-loop-minimal-table": "7f1f3e5264fb99ab91d341b7b8d31c5b6f3849193561e0500e0c3f4777943007",
    "modes-active_lc.cir-extended-minimal-table": "af4c52c1605e5f0252fb70906dbf03bff264430202d5ac59a9f0d2f4e0c214cf",
    "modes-wheel.cir-node-minimal-table": "73cbc2d6212bc23ae60e6c798eb2c6febf79e0f6ea97da5a55d2f3e62c60ee10",
    "modes-wheel.cir-loop-minimal-table": "5868be50ba5029a6aa82acaaac6584c698b398a53db3c579e1e029963d48128a",
    "modes-wheel.cir-extended-minimal-table": "98082ed478e9789a73fe0a38343517ec7290915d99edaf42adb738ccf59cf425",
    "simulate-passive_lc.cir-node-minimal-json": "6fd2ff6975b127ac9090c9842c855da8a11b2702cb827abda2a6f00f90a064a5",
    "simulate-passive_lc.cir-loop-minimal-json": "9d4a78bdce4468a9e7785a791c4d7329d068c6bb3fb767dd9405d2d7abe4430c",
    "simulate-passive_lc.cir-extended-minimal-json": "b56770ed355cb78894f28bfc7eed28afa3f1c870e5992f4e08357353b9415fc6",
    "simulate-reduced_lc.cir-node-minimal-json": "75b9c7f8ab376cadf6d74d6bc369c9ed40598fb36817cc732b5d4380b5be3b02",
    "simulate-reduced_lc.cir-loop-minimal-json": "db2e457e1942a8481e6647fe55f61cc69d8695d4b1b0531353b815451e7e2a89",
    "simulate-reduced_lc.cir-extended-minimal-json": "75b9c7f8ab376cadf6d74d6bc369c9ed40598fb36817cc732b5d4380b5be3b02",
    "simulate-active_lc.cir-node-minimal-json": "3a6089ee3c8816a423ade4b2dc3d97d0c3edffa6d34fcb98e53fcdfe00f9a89e",
    "simulate-active_lc.cir-loop-minimal-json": "cc99801df8d2e7bbcbd7557011c0647459d8b586750fa8dc55802f6014db1ff5",
    "simulate-active_lc.cir-extended-minimal-json": "3a6089ee3c8816a423ade4b2dc3d97d0c3edffa6d34fcb98e53fcdfe00f9a89e",
    "simulate-wheel.cir-node-minimal-json": "ed628b570172cddf152288e23a477206f6d7cfb2b18593bde8fefcde50ec9ae6",
    "simulate-wheel.cir-loop-minimal-json": "98d37bb14e2218cddb088d3cad551a80d20ec3b645a1b49abfab8f3e5becd4ea",
    "simulate-wheel.cir-extended-minimal-json": "f8cf720184cd335b99e10dc215a6e6d4dba6e41a14201c75c83e15e973b0fd3f",
    "modes-ladder32-node": "4b63c929220c7984db8378b796a9b31420fdc3edd3d040359b26b08372c069b7",
    "modes-ladder32-loop": "909bd6c3054b2019bfb9e3b51445b8a5841cde0279d239fa4257503be1faed9a",
    "modes-ladder32-extended": "952262082e75048fb2c82f03a78e6e6304db3468d1854fcf564baad808e1d500",
    "modes-ladder128-node": "f98ae5ddcf82bb2b7de9b987b208814ee6e34fa120d6ed194dbdcdbe2e7ec8f8",
    "modes-ladder128-loop": "b92e52be51bdf53bfaee6bd1771ec8b3fccd3489b7d9a43938242e7f4f319ed0",
    "modes-ladder128-extended": "a6e056966f1f0cbe15c9aa2003e3526a59ce95490e158165704b37c0f55e5278",
    "simulate-ladder32-node": "b508ecd0c9425fc139f44db92679233055db43edd37f5f4bf16b648dff32b120",
    "simulate-ladder32-loop": "be233b4d4af2844f3a6d0c0c477d04977d4fbad07f640ecb98931188642702a9",
    "simulate-ladder32-extended": "aedd0dc11951f5ae4bd02be2e598a5cc1ca686c7fc380b65ed86b0af2328b9dc",
    "simulate-ladder128-node": "952871b9012edad8043991dc06c65f6996cc117a697b8af9ce6969d959460a28",
    "simulate-ladder128-loop": "e970ff3ef5a4f6b0e1b48464f495936944d2e809376ce233e24e05410c48a19b",
    "simulate-ladder128-extended": "20351192c77441ab274a3022a24c8a0417a98a571a390d9ea65df438c64c0360",
}


@pytest.mark.parametrize("case", list(CASES))
def test_cli_output_matches_golden_digest(case, capsys):
    assert _digest(case, capsys) == GOLDEN[case]


class _Capture:
    """capsys for a run outside pytest: what was written since the last read."""

    def __init__(self):
        self.out, self.err = io.StringIO(), io.StringIO()

    def readouterr(self):
        captured = SimpleNamespace(out=self.out.getvalue(), err=self.err.getvalue())
        for stream in (self.out, self.err):
            stream.seek(0)
            stream.truncate()
        return captured


if __name__ == "__main__":
    capture = _Capture()
    with redirect_stdout(capture.out), redirect_stderr(capture.err):
        digests = {case: _digest(case, capture) for case in CASES}
    for case, digest in digests.items():
        print(f'    "{case}": "{digest}",')
