"""Byte pin of the CLI on the bundled corpus and on the pointwise path.

Each command runs on the document that ``exactmdp corpus --id <id>`` prints,
and its exit code and the sha256 of its stdout must equal the values
recorded below.  The commands are those of the benchmark's corpus workload:
``solve``, ``turnpike`` at a point and on an interval, ``partition``,
``small-discount``, ``sweep``, and ``conditions`` at every positive
irregular point.  The pointwise pins run ``solve`` and ``turnpike --alpha``
on the benchmark's first 12x4 random document, and the validation pins run
``validate`` on three documents that break one model rule each.  Any change
to the printed bytes fails here.
"""

import contextlib
import copy
import hashlib
import io
import json

import pytest

from conftest import mdpgen
from exactmdp import cli, docio
from exactmdp.corpus import build_example

PINS = (
    ('ex1', 'solve --alpha 1/2', 0, '00149917c423ff55fe0cad9dbd32863bdfbb9e4bfcd6eb8ead0021ac442e51a3'),
    ('ex1', 'turnpike --alpha 3/4', 0, 'e31bbf3eda2eeec442d87fa50ba689b36f6da60b4cc2d6774bfd698cc7ac458e'),
    ('ex1', 'turnpike --interval 1/100,9/10', 0, '00dae8d8d7ac72060b52a212ce1745e3f9edc64eb3bf22d594ea2f2835f828b9'),
    ('ex1', 'partition', 0, '7500c039f0bf19dbc9bb4ff9543fff2154d19dae23a9de8fd9c9744ce07e848e'),
    ('ex1', 'small-discount', 0, '59f3ae2168a4e8385f122a6d11afd890764060d0ee7f2ebfe0811932ecaed628'),
    ('ex1', 'sweep --interval 1/100,9/10 --steps 20', 0, 'a99fbc79e4af42d1c4601b1a4be14ead07890f79a4577ea1dbd474958db3a40f'),
    ('ex2', 'solve --alpha 1/2', 0, '44809f822bbdd2856bfc7f14dc65e8dd6294b646c3f374bc91cade3a290ca877'),
    ('ex2', 'turnpike --alpha 3/4', 0, '5e7df0cadb91080b5f9eec7cdaa779281467a6636eba0dbcd5f49be17eea2108'),
    ('ex2', 'turnpike --interval 1/100,9/10', 0, '37ecb0fe8f65f2c878b5335a917948e0dfd41e3b78f5b6467c882568796dcf39'),
    ('ex2', 'partition', 0, '1892b84486a74cff13087908e92e10125f8ec2fd9cfe999444040fd8c76cd826'),
    ('ex2', 'small-discount', 0, 'f2d91f41484422475b26ba6bf731b3775e3fc9e310d3fdecb0c0699bd2e3e9a2'),
    ('ex2', 'sweep --interval 1/100,9/10 --steps 20', 0, '983e749b047b866eb1fab389d926c6aa8a227ee5076fdee3dabe1287af2e4e51'),
    ('ex3', 'solve --alpha 1/2', 0, '056c3f39b64308e05b6755ffecded38025c154ddf37b214ec2c2d96ff00d2afa'),
    ('ex3', 'turnpike --alpha 3/4', 0, 'd4fe0395e5fcda9684ad9fd2ba01f9cf9f2e59db14f35ce7c19f7fffda5e4259'),
    ('ex3', 'turnpike --interval 1/100,9/10', 0, '4bc3e64b5f5800ac934dac1089379c55f89334a218a83b6f77c38dba00b73bc9'),
    ('ex3', 'partition', 0, '6bac0de62487ffdc7ddb6e57d000b912ef4d78f8d5be4879d363af3ddad05c7a'),
    ('ex3', 'small-discount', 0, '1d0c7e416c2d4a5915b29ec1d9eace11ae4dbbedcddd302abdeabea19804bc03'),
    ('ex3', 'sweep --interval 1/100,9/10 --steps 20', 0, '70a76bf5d89dce0a39737668b4d52a4fc189cbd4082a91b5eb2c260f40477620'),
    ('ex4', 'solve --alpha 1/2', 0, '331a6becb24572e1cef388e68a3ac863a4c98c71815747c82fafd7d70dad9de8'),
    ('ex4', 'turnpike --alpha 3/4', 0, 'e3389b37feac5d43907909e861350dc8c7b3fa22d7c8f0a54dd4ab53097c20dd'),
    ('ex4', 'turnpike --interval 1/100,9/10', 3, '293564f26997e87ae20a416eb4511a1db85151390865866213fe6eeea6f04ad8'),
    ('ex4', 'partition', 0, 'c602e45c787c2bc9dc51506a825be2307ceb77fd3d77014451525f694c046043'),
    ('ex4', 'small-discount', 0, 'd942e3a6ccb85ae059a0f6adb0c24aec0ece31c44ab631ea00a3c40cd06cd25c'),
    ('ex4', 'sweep --interval 1/100,9/10 --steps 20', 0, '0ed7d1de86f201173a4896565ab4700b960fdc779ce66e15189e544295adc6cf'),
    ('ex4', 'conditions --point 1/2', 0, '52469b05634a25a1af8d8e30e03f6ecd67abb41be69d58afebadd564df96c7d8'),
    ('ex5', 'solve --alpha 1/2', 0, '81cfa2b48c1a022255248da8a6b3e106a778d07f1c8dbb9788be64f3781f2a5e'),
    ('ex5', 'turnpike --alpha 3/4', 0, '148428acf980cdd7adb7552c385b7dd4d15287f05394970fc54235ea61fa4226'),
    ('ex5', 'turnpike --interval 1/100,9/10', 0, '72115dbbe9f69ba74440946a5b3bfaa78559a80550390a1ec5cb222e8c363068'),
    ('ex5', 'partition', 0, '89980adf7f79474b3f7aef581f6d5ddbca098cf90b96444937a4edd19305ff97'),
    ('ex5', 'small-discount', 0, '2956f8c0029d6c9453c98050fa411ce21869699676a13b164e3272713063e3f4'),
    ('ex5', 'sweep --interval 1/100,9/10 --steps 20', 0, '4a77849491d595c08b815192d60559d27aca3d37deecbd0d83768ee92cd60288'),
    ('ex5', 'conditions --point 2/3', 0, 'e2188ed7de65e8107a5107a8b78f114892703eb8d9837ed4eb78e018cf359a2e'),
    ('ex6', 'solve --alpha 1/2', 0, '017f14eddbc27b34f3ead33e0618e33fe213520130938c15f9617673ed20f065'),
    ('ex6', 'turnpike --alpha 3/4', 0, '75388d82fc0e303be632c92f27f4c14ccdeb2e3c2128bd63bafe5e19f37dd526'),
    ('ex6', 'turnpike --interval 1/100,9/10', 3, '698f85f1a15b8e2cf36163c757c1e16f3e2d974472e6826226dbdcad48c98b34'),
    ('ex6', 'partition', 0, 'd6438cf9687bfcc9b4f136c4c217baa623d499b781cbd0fc11ebe6272e55f312'),
    ('ex6', 'small-discount', 0, 'e29c10074ec30fd5330c8ddb41e9ddf82f508315f47de97720a6839127a3f17a'),
    ('ex6', 'sweep --interval 1/100,9/10 --steps 20', 0, '41350f2c659c57ba5e0e334be840151c667e4182860fb4ff489faa93e594b161'),
    ('ex6', 'conditions --point 1/2', 0, 'a58599bbfeef73cd9c4b4d8f883d8beb77e2700091a3a0db6bd0dc224e39507b'),
    ('remark-variant', 'solve --alpha 1/2', 0, 'e4a2dfa8e672d6bdd8f8f4cb4a257181e4ca48dd4e971454ad1722709e5736be'),
    ('remark-variant', 'turnpike --alpha 3/4', 0, 'a0c22b3782ec536366f4eaad4a44491841b251d98ad2b315cabce4a88d19fd23'),
    ('remark-variant', 'turnpike --interval 1/100,9/10', 0, '898081b2ed928f1e8c9c562e4f0e43ed88488ac5a0b9afb54040c3fb055f63a2'),
    ('remark-variant', 'partition', 0, '651ff2b8adaf43af22bc3c24bb6fb7d97d126f6e8cda520ebd793a7f1ceb0d7a'),
    ('remark-variant', 'small-discount', 0, 'ec54cc86038cc06f7bd8e09f6105c5474a097d094f3f8bbf138e1bd3ec70829d'),
    ('remark-variant', 'sweep --interval 1/100,9/10 --steps 20', 0, 'b93da3c7803822edb52205006817f8de2a77693b1387f92bc26d6653631c1dd3'),
    ('remark-variant', 'conditions --point 1/2', 0, '2f91c88a51da7bbcd11389f0b90467745adc537b678297b4c2a8e5f1f6cf9038'),
)

POINTWISE_PINS = (
    ('solve --alpha 9/10', 0, 'f85cc2bc2df94d48a7004a307c2e65dd713775392437ca3a4d4ba9a293c2b9ec'),
    ('turnpike --alpha 9/10', 0, '5911e50b1006c5164f7a281a58650be912498c573f5e7623a9be06c863a7bf1a'),
    ('solve --alpha 19/20', 0, 'eb9b79ef3336008b242f21b52e9ccae041699e3c4c59c7c393d45a0073e389f0'),
    ('turnpike --alpha 19/20', 0, 'e3171d2bf04cd57bff98a88d5bfbcff06993c9146f127800fab2cbae200d66ab'),
    ('solve --alpha 97/100', 0, 'e18f9fcccc2634dfee8246b02f2ce6e8f52808fd6cbadb9638776a93077ae1ee'),
    ('turnpike --alpha 97/100', 0, '74d570cda899f5ae071bc3dc8d70f94bd9befcbfdd0ec39ba49c9036ee7cd993'),
)

VALIDATE_PINS = (
    ('out-of-range', 0, '4f5801e41181460a8c0a432b2aad29b0fdf42f91070ce71f3a87b3f7ba8470d4'),
    ('row-sum', 0, '1b472cabdf62a31cce6a0bf12a540aa2b5915657d1ad35b8427528a183c2035e'),
    ('duplicate-action', 0, '9fda44d36a19c3b4028b51f641b109caf0b88d7867d1c4d73e16808d437f8b81'),
)

# ex1 with one model rule broken: an entry outside [0, 1] (its row still
# sums to 1), a row summing to 2/3, and an action listed twice
INVALID_EDITS = {
    'out-of-range': lambda d: d['transitions'].__setitem__('x1/a1', ['3/2', '-1/2']),
    'row-sum': lambda d: d['transitions'].__setitem__('x1/a2', ['1/3', '1/3']),
    'duplicate-action': lambda d: d['actions'].__setitem__('x2', ['a1', 'a1']),
}


def run_cli(argv):
    """(exit code, sha256 of stdout) of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    paths = {}
    for eid in sorted({eid for eid, *_ in PINS}):
        path = root / f"{eid}.json"
        path.write_text(docio.dumps_document(docio.document_from_mdp(build_example(eid).mdp)))
        paths[eid] = str(path)
    return paths


@pytest.mark.parametrize("eid,command,code,sha", PINS, ids=[f"{p[0]}:{p[1]}" for p in PINS])
def test_cli_bytes(documents, eid, command, code, sha):
    name, *options = command.split()
    assert run_cli([name, documents[eid], *options]) == (code, sha)


@pytest.fixture(scope="module")
def pointwise_document(tmp_path_factory):
    path = tmp_path_factory.mktemp("pointwise") / "r12x4-0.json"
    path.write_text(docio.dumps_document(mdpgen.random_document(12, 4, 8, 0)))
    return str(path)


@pytest.mark.parametrize("command,code,sha", POINTWISE_PINS, ids=[p[0] for p in POINTWISE_PINS])
def test_pointwise_bytes(pointwise_document, command, code, sha):
    name, *options = command.split()
    assert run_cli([name, pointwise_document, *options]) == (code, sha)


@pytest.mark.parametrize("case,code,sha", VALIDATE_PINS, ids=[p[0] for p in VALIDATE_PINS])
def test_validate_bytes(tmp_path, case, code, sha):
    doc = copy.deepcopy(docio.document_from_mdp(build_example("ex1").mdp))
    INVALID_EDITS[case](doc)
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["validate", str(path)]) == (code, sha)


def test_pins_cover_every_positive_irregular_point(documents):
    """The conditions pins are exactly the positive irregular points."""
    for eid, path in documents.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["partition", path]) == 0
        points = {ip["point"] for ip in json.loads(out.getvalue())["irregular_points"]} - {"0"}
        pinned = {c.split()[-1] for e, c, *_ in PINS if e == eid and c.startswith("conditions")}
        assert points == pinned, eid
