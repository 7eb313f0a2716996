"""Pins the exact output of generate() on every small recipe.

Covers each (method, k, n, t) with k <= 9, k**n <= 2,000,000 and
expected_period <= 20,000 for methods a, c, a_t and lempel.  A successful
cell maps to the sha256 of its symbol bytes; a disconnected cell maps to
the ConstructionError's component count and its edge counts, run-length
encoded as (size, multiplicity) pairs in the error's largest-first order.
A change to any entry is a change to the construction output and has to
be declared as such.

BLOCK_MID pins method a_t with block width t >= 2 the same way on every
cell with k <= 9 and expected period in (20,000, 400,000].

MID pins every cell of the golden period tables (methods a and lempel)
with expected period in (20,000, 1,000,000] that no other dict pins.
LARGE pins cells past that grid the same way, except that a disconnected
cell maps to its component count and the sha256 of the full error
message.  The heaviest cells run only in the extended tier
(OSEQ_ACCEPTANCE_EXTENDED=1).
"""

import hashlib
import itertools

import pytest

from oseq.constructions import ConstructionRecipe, Method, generate
from oseq.errors import ConstructionError

EXPECTED = {
    ('a', 3, 2, None): 'ae4b3280e56e2faf83f414a6e3dabe9d5fbe18976544c05fed121accb85b53fc',
    ('a', 4, 2, None): '054edec1d0211f624fed0cbca9d4f9400b0e491c43742af2c5b0abebf0c990d8',
    ('a', 5, 2, None): '2a0338bf685fb94e7ccb7d2869642cac23cb5074cca8fcb6a2be385a00da03f9',
    ('a', 6, 2, None): '380d023992cb5f3c0f9c305592fe16c58cea39c5e42c42b95fb1b0bee9f3f547',
    ('a', 7, 2, None): '1154789e33aba3f7051b5fb42ee6f52fd6444a6ee52cf697fe31f2277d434898',
    ('a', 8, 2, None): '51e88055506ae843fc8842612ea74ed04a15ca68f140e828621a5927d3be6fbe',
    ('a', 9, 2, None): '4187b1752c7d0bf31bd052a6348807f5538d2059091ab650a9ef34db43703510',
    ('a', 3, 3, None): (2, ((6, 1), (3, 1))),
    ('a', 4, 3, None): (2, ((8, 2),)),
    ('a', 5, 3, None): 'd3138004d024aa43fa861939642079a5b68f14efc4999b8eb2061f69618bbcbf',
    ('a', 6, 3, None): 'c0126683d3bc1203a51ea739e23ccb92096fdef302909eadde950309e4ce4f2f',
    ('a', 7, 3, None): '5c34d1280fa4ccbfc1305f0c6a392982819695c3ec95a3b66c47965a16053843',
    ('a', 8, 3, None): 'e7418ba4ffbfde41456de2b73d478cd43fa8e64adb623905a748be025f34ace5',
    ('a', 9, 3, None): 'aa23225e9fd75e9deeacbf7897cc123347532116f268500932c13c9259657ef8',
    ('a', 3, 4, None): (3, ((9, 3),)),
    ('a', 4, 4, None): (6, ((12, 5), (4, 1))),
    ('a', 5, 4, None): 'ed30d75b3f8db4abba23fc9126dd310526a5ad50ec7ea8907085b65a1db57f4d',
    ('a', 6, 4, None): '21074d95e49c6736b9442caf12a10ca4d262ab6134631ae48686abfa5d6bbaf2',
    ('a', 7, 4, None): 'e2614b522021af897c78d47808738e6ec63100c90cd22db3b838782c0d95c094',
    ('a', 8, 4, None): '26c8ae362c09fe48c3ea57ea090fc1249b99e425568e09307e2cbf79cfbf8d57',
    ('a', 9, 4, None): '8cb0a97b95af52402bc6b1b13770cefab1d398e2bef9e8358c145ee333cc1173',
    ('a', 3, 5, None): (8, ((12, 6), (6, 1), (3, 1))),
    ('a', 4, 5, None): (16, ((16, 16),)),
    ('a', 5, 5, None): '104159be88e5a64520c26d15e2b779e6bb8679efb0168f7dcfcfae7dd8d779b2',
    ('a', 6, 5, None): 'a49afdffaa7173ab214f00289e3fa5bc429ddd7e29322cceb04cdd2610e5b611',
    ('a', 7, 5, None): '96905b9f55c74e599dcb48170d4984db8c8271457c8fa7efb0fad70f40c81880',
    ('a', 8, 5, None): '16279dd015e487d2f66776e457746575cddca03884529f7d8dbac26e9b835ecc',
    ('a', 3, 6, None): (17, ((15, 16), (3, 1))),
    ('a', 4, 6, None): (52, ((20, 51), (4, 1))),
    ('a', 5, 6, None): '1bb86ebc673a3fe83f28664e5aa6a093cb0811ee6e04dceb8c76286b0be9b6d1',
    ('a', 6, 6, None): 'd2df5b3739d009257de69353ff7251caad52a528cdac56d69548d5b90cbacf73',
    ('a', 3, 7, None): (42, ((18, 39), (9, 3))),
    ('a', 4, 7, None): (172, ((24, 170), (8, 2))),
    ('a', 3, 8, None): (105, ((21, 104), (3, 1))),
    ('a', 4, 8, None): (586, ((28, 585), (4, 1))),
    ('a', 3, 9, None): (278, ((24, 270), (12, 6), (6, 1), (3, 1))),
    ('a', 3, 10, None): (729, ((27, 729),)),
    ('c', 5, 2, None): '0906229fa26dedf0e166d7ee28a1cd196858841bc923b0c372d1a1056dc57250',
    ('c', 7, 2, None): 'cee0d9397593515c9074525a02bae52ecb6bd370d5c4f0331f6b722b8194840f',
    ('c', 9, 2, None): '8e305b5de447e85eb9b701073c8445bd39d857f40e92d947352eb7549cb0424d',
    ('c', 5, 3, None): '2ccafa5cbd85a635afb1cb63eb0ae6f9d01fe18ec0097ecc78dad745ec12c96b',
    ('c', 7, 3, None): 'e167ea368e8d55230ec3f2c14ed6de55f55e7518f714e45f4ab414377ba33e1f',
    ('c', 9, 3, None): 'e44cdcab76dec46ce41806ea4c1a320b3699b77fa5578365ee7ee2f36e145056',
    ('c', 5, 4, None): '400b074d1224881aef752844091aed938f31a15b7f8a099e20786ade9c9ba0ae',
    ('c', 7, 4, None): 'cbfc2c6494492a96d6a79d66a4024bcb15ec10f901a9682986861f97be2fe94e',
    ('c', 9, 4, None): 'ac66a0a021e4d771bca394f1cee0fe501871d6a0d68f5730e968f34231b48e4e',
    ('c', 5, 5, None): '3de60e65a94979b1a4bf526b6334d3c5cc595eb724aeb518e39ed3af6ba5cd97',
    ('c', 7, 5, None): '9cb46a330e6a315c2a992e011e2a3dea8e622468835e6bcad0c6dc96bbe24356',
    ('c', 5, 6, None): '84f28ce9a0f4c71fd68438a42beab1732c17516b7d23c36c3f5dc9e95512ec7b',
    ('a_t', 5, 2, 1): '2a0338bf685fb94e7ccb7d2869642cac23cb5074cca8fcb6a2be385a00da03f9',
    ('a_t', 6, 2, 1): '380d023992cb5f3c0f9c305592fe16c58cea39c5e42c42b95fb1b0bee9f3f547',
    ('a_t', 7, 2, 1): '1154789e33aba3f7051b5fb42ee6f52fd6444a6ee52cf697fe31f2277d434898',
    ('a_t', 8, 2, 1): '51e88055506ae843fc8842612ea74ed04a15ca68f140e828621a5927d3be6fbe',
    ('a_t', 9, 2, 1): '4187b1752c7d0bf31bd052a6348807f5538d2059091ab650a9ef34db43703510',
    ('a_t', 5, 3, 1): 'd3138004d024aa43fa861939642079a5b68f14efc4999b8eb2061f69618bbcbf',
    ('a_t', 6, 3, 1): 'c0126683d3bc1203a51ea739e23ccb92096fdef302909eadde950309e4ce4f2f',
    ('a_t', 7, 3, 1): '5c34d1280fa4ccbfc1305f0c6a392982819695c3ec95a3b66c47965a16053843',
    ('a_t', 8, 3, 1): 'e7418ba4ffbfde41456de2b73d478cd43fa8e64adb623905a748be025f34ace5',
    ('a_t', 9, 3, 1): 'aa23225e9fd75e9deeacbf7897cc123347532116f268500932c13c9259657ef8',
    ('a_t', 5, 4, 1): 'ed30d75b3f8db4abba23fc9126dd310526a5ad50ec7ea8907085b65a1db57f4d',
    ('a_t', 5, 4, 2): 'bc99de1b20b69c9b3bb5360212f5134c4bbdc69065038b4d24e0e0f4ee492543',
    ('a_t', 6, 4, 1): '21074d95e49c6736b9442caf12a10ca4d262ab6134631ae48686abfa5d6bbaf2',
    ('a_t', 6, 4, 2): '16002631ba379a70929a5c5e7aa837a476b129166f8a84d03e0f5535ae44e103',
    ('a_t', 7, 4, 1): 'e2614b522021af897c78d47808738e6ec63100c90cd22db3b838782c0d95c094',
    ('a_t', 7, 4, 2): 'a591cf346a387a278ab3c9ef4e689f761fc8d6aaf23c722a9d782a94779c8fd4',
    ('a_t', 8, 4, 1): '26c8ae362c09fe48c3ea57ea090fc1249b99e425568e09307e2cbf79cfbf8d57',
    ('a_t', 8, 4, 2): '3be7c089ccdf85697a9f27c66d48f8262418a3ee7cfaa0d030d69b60e064e540',
    ('a_t', 9, 4, 1): '8cb0a97b95af52402bc6b1b13770cefab1d398e2bef9e8358c145ee333cc1173',
    ('a_t', 9, 4, 2): '78d11e4a8ea85b572f23baa98204b6b5756ce42100e658a76f0c055dc0c9d597',
    ('a_t', 5, 5, 1): '104159be88e5a64520c26d15e2b779e6bb8679efb0168f7dcfcfae7dd8d779b2',
    ('a_t', 5, 5, 2): 'd9ad057fbb7385a96670d4a3217bb1069f83317ea00a47c9a1304395ba17d8c8',
    ('a_t', 6, 5, 1): 'a49afdffaa7173ab214f00289e3fa5bc429ddd7e29322cceb04cdd2610e5b611',
    ('a_t', 6, 5, 2): '1b5e7b02ad06cfaa2e3a5807086ca250b1ced95a1260c7517c92c39ac0466737',
    ('a_t', 7, 5, 1): '96905b9f55c74e599dcb48170d4984db8c8271457c8fa7efb0fad70f40c81880',
    ('a_t', 7, 5, 2): '85a856699728efe74d187feb24a26caa70fbce761817475a509a5b3ad2c317bc',
    ('a_t', 8, 5, 1): '16279dd015e487d2f66776e457746575cddca03884529f7d8dbac26e9b835ecc',
    ('a_t', 8, 5, 2): '2f0523f70034c4c3b150e5b3bfb2599c5128175bb59cacfb7b1475c5b90191c5',
    ('a_t', 5, 6, 1): '1bb86ebc673a3fe83f28664e5aa6a093cb0811ee6e04dceb8c76286b0be9b6d1',
    ('a_t', 5, 6, 2): 'df1f850031d58bbdaadcb13d3059e3d0ef82f8b1760bb6c4c3c26b9233f82279',
    ('a_t', 5, 6, 3): 'ae4b9e6c5fbdaa664ddb1f68889441c6c3f9354a6c63b301b3714a4d31934e80',
    ('a_t', 6, 6, 1): 'd2df5b3739d009257de69353ff7251caad52a528cdac56d69548d5b90cbacf73',
    ('a_t', 6, 6, 2): '46a2b0b20c53ce164db46bc75e5e84da907e36eb5f28c91e337e738b904da1ec',
    ('a_t', 6, 6, 3): '2d05656c6a8964fdf4fcf8bc7e4b7fcd6bedc7f7bd8005023f71bf4fb55a1520',
    ('lempel', 3, 3, None): 'e876c1388c40c37859e21594ecae153e665f58e934c3ab00900de0b429eae5fa',
    ('lempel', 4, 3, None): '4cebe272ad90dd3e1d6e531bfdc7aa6108cbf2b6e0461807264288bf1d758648',
    ('lempel', 5, 3, None): '144059730bc414088a098832ef3c6d59677fe0362bf40ceea5561edefbc76c45',
    ('lempel', 6, 3, None): '84770122ee3ff656fd8bc73c5662b5f1a4314003af413b091b39cce580f36357',
    ('lempel', 7, 3, None): 'b2f18a5b487ea53469b3de503b29625b40334b7b4e066401b14c668b68e9bb78',
    ('lempel', 8, 3, None): 'd11cfbbac579aff26d7c0634eb21ab43251ed8b5281f2887a3346e08a24aafe2',
    ('lempel', 9, 3, None): '595da8af45c6b756bd62089394da0d9004ca2804fc585339e3d737ebab2962df',
    ('lempel', 3, 4, None): 'd8f792cbd65e84cff7fd397d6103a24e7edef565bf2838bd1e4c2a894419d2b8',
    ('lempel', 4, 4, None): '5f54c7a8263257ceb500e2d11c497d86214cc7e3bebc85dcf54117706a6d8726',
    ('lempel', 5, 4, None): '952ccc754ea3ea7d8d7c6d3d03ad143801233739915818f200483c5ba5ac476f',
    ('lempel', 6, 4, None): '09c5267141c9bae516a067a0272ed95feee3097496fead6c9f15ee3697ed1995',
    ('lempel', 7, 4, None): '67a2660fc6e8eb07248ae3a6537565efb2dce3ba06a5740e4115ce2d10510d66',
    ('lempel', 8, 4, None): 'ffbb3b477e69784c3f0b7e024b2ba64463564f1904c7033e9a9a83a930d98d8c',
    ('lempel', 9, 4, None): '3b598829a5ec2a8578c2637c09fd2f16d678b1a888e14fd5459936b3bb416e02',
    ('lempel', 3, 5, None): 'c9e792268f20938f07d04c00a54adc7ba6c1e2ee34ca1788ef444261c3cc1c3a',
    ('lempel', 4, 5, None): 'bb26decd07d2273f1a836bc7d177ae94e2d5f01a8da203524e039e4d3b2d87c9',
    ('lempel', 5, 5, None): 'a56c9e705ccb0cddc2076fa623139b763c9068f57d53e87e33a5091db40235cb',
    ('lempel', 6, 5, None): '5af9fdbba85195ae918b4eeb90422702bd237fcddcfa48794c4fd7073afcc300',
    ('lempel', 7, 5, None): '5c65ea3cfe82134b8a8af874028aacfbd9320a8a13c5c64935b4dc7ce99a8670',
    ('lempel', 8, 5, None): '51686e80821c3f2de0a82acb86d647024487afa9ecc192bde2a3f1aab0e76e11',
    ('lempel', 3, 6, None): 'ca9ab1feb3d480b4be99ea3eb608b8fde0b9b4715879efc67f836a470f721e33',
    ('lempel', 4, 6, None): 'eee390a4b095dcb9d9b04d86851ca6e744ec732e6cbbcf72a94625674a9473d1',
    ('lempel', 5, 6, None): '5b12096866701d2d77e247aed1532e9343218434426694964cfab4cfbb95af3b',
    ('lempel', 3, 7, None): '0a4dcd8daddaa15083222fd2ae3bde7ad9fd7c7151c46b53cde39702bb3501ef',
    ('lempel', 4, 7, None): '9ca1ece11bf676fca8af9a9c5b0d45fe8614fbccf1b8c0d74f512f2893dd51ce',
    ('lempel', 3, 8, None): '006edf2d54c0beb7a4335de44b987130fee4f542391fcb02b89a1b48da2281fe',
    ('lempel', 3, 9, None): '8fe7651c0ff17ac3d5f0821498992889b339110b0d9507bed8a972dd0b26c5e9',
}


BLOCK_MID = {
    ('a_t', 9, 5, 2): '9055f929f58a9f14fc5375a47ab1858c3b3235f0d0a1be7928d945124f22f2fd',
    ('a_t', 5, 7, 2): 'b4c90c858ccd3bfc86f36e79f2a41f963cac0f07d54c652c548f1f3f2dd0e0b5',
    ('a_t', 5, 7, 3): '0242797a2aba81fb96e8b3e985aa8680a9ba889c3a84d8a06dce6f6a980a2bd4',
    ('a_t', 7, 6, 2): 'cb9f80eb2b8c3404dff3372ce95fb6a46ab76774b38c92dcbcf4ee83a8e282d8',
    ('a_t', 7, 6, 3): '683e9f44f4f42524d9255811760914bc207ae7c76095105b737ee5c5005a483a',
    ('a_t', 6, 7, 2): '531dd20ba96b09082db42aee745e030124b993f17fad2a818f6f6f700f187e5a',
    ('a_t', 6, 7, 3): '28f9ab902ad0de11931f558ae0476d8c665decf2042b9fa531e4040f7cc3cf25',
    ('a_t', 8, 6, 2): '40aa1354594feefebc1b289f4d7555c67f2f418a702e4a820cd0efc6c5868e9e',
    ('a_t', 8, 6, 3): '275e1815e41a1e1785fe682df81ef98bf9fd8898950404cfe75c2d99d86fab7e',
    ('a_t', 5, 8, 2): '9834a0bf80f092459ca1fa23e21df3bf46e9ea18bb5f83c9403438cddcf35a21',
    ('a_t', 5, 8, 3): '0e422b5b432a15ef628811c57191a0820060edbaf69dbf40cd6a0befeaa6115c',
    ('a_t', 5, 8, 4): 'e347921634985c43f1b83ee9dc9e6620155a528f7fade4a98d9fb8cb1d9fdebe',
    ('a_t', 9, 6, 2): '97f1e1368630b1e4eda57e072f704d99a241c786fe730ca29087367b2b5b3069',
    ('a_t', 9, 6, 3): '2a381d73ce8a77c9be4804a8b92826b087560a859640aca39bab60a7c741e036',
    ('a_t', 7, 7, 2): 'ea5dde8770274b02378108097f1bd40756bfe259d9472b07f9af11ceea4878e6',
    ('a_t', 7, 7, 3): 'fb910868ffa8fc9c043829bf2d1d8fead33125431726cadced67b83bdc1a12d3',
}


@pytest.mark.parametrize("cell", list(EXPECTED) + list(BLOCK_MID), ids=str)
def test_generate_output_is_pinned(cell):
    method, k, n, t = cell
    recipe = ConstructionRecipe(Method(method), k, n, t=t)
    want = {**EXPECTED, **BLOCK_MID}[cell]
    if isinstance(want, str):
        seq = generate(recipe)
        assert hashlib.sha256(seq.symbols.tobytes()).hexdigest() == want
        return
    with pytest.raises(ConstructionError) as err:
        generate(recipe)
    runs = tuple((size, len(list(group))) for size, group
                 in itertools.groupby(err.value.component_edge_counts))
    assert (err.value.component_count, runs) == want


MID = {
    ('lempel', 6, 6): '934c119c989c7650463598dfcbb2e7ab46b6417b722dff0a5e4d618eefc00479',
    ('lempel', 4, 8): '6555820449c4bd37834ce523e543635ede44f9e00954073b0cce4eb6a8b22e85',
    ('a', 9, 5): 'bf84e92ad8a2277f7677ca90fa0a4aa3f3de6f0d2d45c093af65c4e9b144e1ee',
    ('a', 5, 7): 'f3f36adf03954c4ee1eab961d1f80fa953ea0eff4287230a316d720879cd4db4',
    ('lempel', 5, 7): '2cd128db7633b55bcdf7ef8e527d821082766a7eb23e29789b03c6bd3b20a732',
    ('a', 7, 6): 'b86b7bda0199662f4933d95beaa698d29c98941969e1750fe4a9067d91a986a2',
    ('lempel', 7, 6): '1464aca9bb09ef7d98f3757227c52362a5c8aca71d85e8c7b2a902162fdcd0bb',
    ('a', 6, 7): 'effc51e7bb228fca0421ee05cb62c8709f779708bc167b01aab97dc4dcc756d9',
    ('a', 8, 6): '3eabf49645d1efd02cf8cb42db5c0043c5961b26d06eb3c7d562533688e48a40',
    ('lempel', 8, 6): 'be816285360d9499dabcfab4786c3c12647d4f021e9923315d7192bc242acafe',
    ('lempel', 6, 7): '3b600cb0200c1456900be7b518c0ede2fdabe85282fd1c10446d70de398d5755',
    ('a', 5, 8): 'c6cddf263e233ac3371ca8a7112c47e19f96d7e7ffe49dcd6a75dcfcaefc5a28',
    ('lempel', 5, 8): '29077368b303ede1efa95ecd08470d70062cd310698ebe527ec7aa0c2f7678cc',
    ('a', 9, 6): '4b0d6494c7163f01ef2e6c7ce7f416b2546e7b1c9bcf2bee215810ff615aaad8',
    ('a', 7, 7): 'f0037d8cfc46f794e9eb2b9083b79f4d03b88c910596f6cfd8219217ea83cd4d',
    ('a', 6, 8): 'be6cdc33a37686dcf31a18b2eafdd4a6cdbcb07b4643e609dcee8b2d118494f1',
    ('lempel', 6, 8): 'ef6f01cfb7b3f2ad3ba3a4a864a037fd53332489d455982ec84db74b4fc68e7f',
}

LARGE = {
    ('a', 8, 7): 'c57e95a82c31ddb08b945bb411d667b3b979b821fb9eda1991d79655dd7c9643',
    ('lempel', 7, 7): '1b07ae5cc48a3354de8fc2db26955486a4a7c47e41d313e994aecbf10dd764f9',
    ('a', 4, 11): (26216, 'bd612b59e0e1a276f56933713d13cde7ea979e0dce4e2886b6ce4f86656e6cd5'),
    ('a', 3, 13): (14784, 'a58dc8990747dda0a1b7b5df1fd087760dc0ac79ebe2100f0b93b3ed2fc10506'),
}

LARGE_EXTENDED = {
    ('a', 9, 7): '36c0b7fe200bc1c3f493918e91850ff332e796e78ddd4aba38232f1791aa1d5b',
    ('a', 8, 8): 'd55308523156ff2f0914a3e16fa8c368eeaf411409cad7a37e7519d4ad07cb7b',
    ('a', 9, 8): '5de70cd6e0621b96cdc45c66f441074f79a7ba33db38fcdfae2ff65da9aaff59',
    ('lempel', 8, 7): '82804f5a8fc01359bdb1461d8d63599bbded9ca879823014de9b0fa00febfbdb',
    ('lempel', 8, 8): '12da3e96786ad322ccc7e0a0f429cde0170462129b4de5ddbd45ba2c0663132b',
}


@pytest.mark.parametrize("cell", list(MID) + list(LARGE) + [
    pytest.param(cell, marks=pytest.mark.extended) for cell in LARGE_EXTENDED
], ids=str)
def test_large_output_is_pinned(cell):
    method, k, n = cell
    recipe = ConstructionRecipe(Method(method), k, n)
    want = {**MID, **LARGE, **LARGE_EXTENDED}[cell]
    if isinstance(want, str):
        seq = generate(recipe)
        assert hashlib.sha256(seq.symbols.tobytes()).hexdigest() == want
        return
    with pytest.raises(ConstructionError) as err:
        generate(recipe)
    message = hashlib.sha256(str(err.value).encode()).hexdigest()
    assert (err.value.component_count, message) == want
