"""Pins the exact output of generate() on every small recipe.

Covers each (method, k, n, t) with k <= 9, k**n <= 2,000,000 and
expected_period <= 20,000 for methods a, c, a_t and lempel.  A successful
cell maps to the sha256 of its symbol bytes; a disconnected cell maps to
the ConstructionError's component count and its edge counts, run-length
encoded as (size, multiplicity) pairs in the error's largest-first order.
A change to any entry is a change to the construction output and has to
be declared as such.
"""

import hashlib
import itertools

import pytest

from oseq.constructions import ConstructionRecipe, Method, generate
from oseq.errors import ConstructionError

EXPECTED = {
    ('a', 3, 2, None): 'ae4b3280e56e2faf83f414a6e3dabe9d5fbe18976544c05fed121accb85b53fc',
    ('a', 4, 2, None): '054edec1d0211f624fed0cbca9d4f9400b0e491c43742af2c5b0abebf0c990d8',
    ('a', 5, 2, None): '1c3cc86f2c6e9ca1a1591c83b82d9b9e14685c25b574fdacdf7921ac8448fb8e',
    ('a', 6, 2, None): '1b130a499fb095fbe72684a0c2741ea2e0b6716846c64590331479177e7a1ab1',
    ('a', 7, 2, None): '26b431f85521302c7fbc7e320365c7ac5cd0289c5f8081d440d94645962315da',
    ('a', 8, 2, None): '2fa1a384bf8488ecd9312bdd0ac3111e051b9489b8016a868265cf3b75e779ac',
    ('a', 9, 2, None): '9635bf8397dcb941e6287f0357a798b74a791456672b271d69db792842b08544',
    ('a', 3, 3, None): (2, ((6, 1), (3, 1))),
    ('a', 4, 3, None): (2, ((8, 2),)),
    ('a', 5, 3, None): 'a2e971335cece99e85861f3e928fa431ff8422c2c0c7a68de5d625ad584b4065',
    ('a', 6, 3, None): '727232a473c52ff6297f71eeb6c1e99bc51305689cf0e33dc9b00760fa1c5ead',
    ('a', 7, 3, None): 'fea1cd812b3d158ab3d56707bedbd10dce7715c45e44b3b6021aaa79408a1299',
    ('a', 8, 3, None): '6a244c169065ddddcb5e56094369b289857fa41dbffbc17fb433ae361e648a78',
    ('a', 9, 3, None): '3a96bd694888cd5fabb122e212bb569c5625af55ed8dcce875c4de29a30b036f',
    ('a', 3, 4, None): (3, ((9, 3),)),
    ('a', 4, 4, None): (6, ((12, 5), (4, 1))),
    ('a', 5, 4, None): '6bc7489196e09e8b3f45685d36af47b1b05f92e8b3db9d00318066509c15c807',
    ('a', 6, 4, None): 'd3e6e1201476d7bea4d92b96c3292eb27902bb8d2a3420c32f2d804db81a0add',
    ('a', 7, 4, None): '321bcaa112ac96ddfe7f724a1f813919f1fe3e41d63f969e7e38ba445f8b9f4f',
    ('a', 8, 4, None): '93190c6f28f3893ec07ccae1c78caedae9ca8e09faac8a6dc9c4d2fe4a3db456',
    ('a', 9, 4, None): 'a7c6dbb8a47bd00431da79bcf6e6105927b95b1076a6ef57962a8620695c470d',
    ('a', 3, 5, None): (8, ((12, 6), (6, 1), (3, 1))),
    ('a', 4, 5, None): (16, ((16, 16),)),
    ('a', 5, 5, None): 'a9d33299cad99fee0b6803e9c840fb6abb72b78522c71fa18f44e19aa0ba52b8',
    ('a', 6, 5, None): '84c258392d973420467d374278a487ec69e50a2be4b6141cdbc5b39e5f2b37a1',
    ('a', 7, 5, None): 'a4be376a66221faf593415cb6f70f7728e462a7470d0ec03e61a86691fd91a28',
    ('a', 8, 5, None): 'c5bc2b7a095f9c39b5687517668903590b0c5288649b2e84bf844215afa9e7c3',
    ('a', 3, 6, None): (17, ((15, 16), (3, 1))),
    ('a', 4, 6, None): (52, ((20, 51), (4, 1))),
    ('a', 5, 6, None): '1b69e014bfb0e9b2792dffd329f35a0f05038d2191a287ddcbeaf877132f531c',
    ('a', 6, 6, None): '0c2fb972da316359db2d6e5c8b009f236e3391a87ef2ae9b37470482f7ff37ac',
    ('a', 3, 7, None): (42, ((18, 39), (9, 3))),
    ('a', 4, 7, None): (172, ((24, 170), (8, 2))),
    ('a', 3, 8, None): (105, ((21, 104), (3, 1))),
    ('a', 4, 8, None): (586, ((28, 585), (4, 1))),
    ('a', 3, 9, None): (278, ((24, 270), (12, 6), (6, 1), (3, 1))),
    ('a', 3, 10, None): (729, ((27, 729),)),
    ('c', 5, 2, None): '0906229fa26dedf0e166d7ee28a1cd196858841bc923b0c372d1a1056dc57250',
    ('c', 7, 2, None): 'cee0d9397593515c9074525a02bae52ecb6bd370d5c4f0331f6b722b8194840f',
    ('c', 9, 2, None): '8e305b5de447e85eb9b701073c8445bd39d857f40e92d947352eb7549cb0424d',
    ('c', 5, 3, None): '6514f15a09af519aca529e05e76ba43b62911a86c3ac96b0f0e600a44aa5f434',
    ('c', 7, 3, None): '4e95176773af51db9aac0e0905d8a6d0f2ed4419784f2063abad07d5d90594ae',
    ('c', 9, 3, None): '0658e06cb1f6d9230b0d338ec6c1d5f123e2025175d76650f6ce86b3f2d0dbd8',
    ('c', 5, 4, None): '06c03859a236e3c911f72892df223590c09cc23cd13f83e6f02903334e3dbfb4',
    ('c', 7, 4, None): '7aa9d222392ce30ed2ac1af82233758ccba16ebdefa033f27dbe49d93ea29ada',
    ('c', 9, 4, None): 'c7bb7e72d7519c3e5df8990d46d227f3e4869f6c9e0b2c62858839a3d548d29f',
    ('c', 5, 5, None): '2c8ba4e9b9011db774892d676b6166a914b08ddb49c6fc262c335967096fdfa9',
    ('c', 7, 5, None): '878ead1b6bb71213f3d11cfb59028d2a682045661a9a910f47e2c9e5402ae514',
    ('c', 5, 6, None): 'd4c2c388458799e0950f6452fe560158490e69c16d9fe3a42e2899a89513098f',
    ('a_t', 5, 2, 1): '1c3cc86f2c6e9ca1a1591c83b82d9b9e14685c25b574fdacdf7921ac8448fb8e',
    ('a_t', 6, 2, 1): '1b130a499fb095fbe72684a0c2741ea2e0b6716846c64590331479177e7a1ab1',
    ('a_t', 7, 2, 1): '26b431f85521302c7fbc7e320365c7ac5cd0289c5f8081d440d94645962315da',
    ('a_t', 8, 2, 1): '2fa1a384bf8488ecd9312bdd0ac3111e051b9489b8016a868265cf3b75e779ac',
    ('a_t', 9, 2, 1): '9635bf8397dcb941e6287f0357a798b74a791456672b271d69db792842b08544',
    ('a_t', 5, 3, 1): 'a2e971335cece99e85861f3e928fa431ff8422c2c0c7a68de5d625ad584b4065',
    ('a_t', 6, 3, 1): '727232a473c52ff6297f71eeb6c1e99bc51305689cf0e33dc9b00760fa1c5ead',
    ('a_t', 7, 3, 1): 'fea1cd812b3d158ab3d56707bedbd10dce7715c45e44b3b6021aaa79408a1299',
    ('a_t', 8, 3, 1): '6a244c169065ddddcb5e56094369b289857fa41dbffbc17fb433ae361e648a78',
    ('a_t', 9, 3, 1): '3a96bd694888cd5fabb122e212bb569c5625af55ed8dcce875c4de29a30b036f',
    ('a_t', 5, 4, 1): '6bc7489196e09e8b3f45685d36af47b1b05f92e8b3db9d00318066509c15c807',
    ('a_t', 5, 4, 2): 'a71bdbfdf23c6bc89889312c2e70aa65aa8282f8ef363fca1d7c1059066c977c',
    ('a_t', 6, 4, 1): 'd3e6e1201476d7bea4d92b96c3292eb27902bb8d2a3420c32f2d804db81a0add',
    ('a_t', 6, 4, 2): 'f89ed7e61b16abfab27bcae0d0271d1090d66eb78facd729d36642c8c0253f33',
    ('a_t', 7, 4, 1): '321bcaa112ac96ddfe7f724a1f813919f1fe3e41d63f969e7e38ba445f8b9f4f',
    ('a_t', 7, 4, 2): 'da89140847690d8df585d583def9fb84cfd4029b506797a1664570879af74889',
    ('a_t', 8, 4, 1): '93190c6f28f3893ec07ccae1c78caedae9ca8e09faac8a6dc9c4d2fe4a3db456',
    ('a_t', 8, 4, 2): '91041bdb42d783a71e137da085c612c313196d32c34c668221ec68f01bec1d42',
    ('a_t', 9, 4, 1): 'a7c6dbb8a47bd00431da79bcf6e6105927b95b1076a6ef57962a8620695c470d',
    ('a_t', 9, 4, 2): 'b8bf006f03b64857f1fa73ec5a2d9b8cf3ee7f7fa128b104bd48fa93121fe599',
    ('a_t', 5, 5, 1): 'a9d33299cad99fee0b6803e9c840fb6abb72b78522c71fa18f44e19aa0ba52b8',
    ('a_t', 5, 5, 2): '8633a54ed0ed42c50f0baf1c412145471e3e0e9cf792561b761e52c3bc72ad60',
    ('a_t', 6, 5, 1): '84c258392d973420467d374278a487ec69e50a2be4b6141cdbc5b39e5f2b37a1',
    ('a_t', 6, 5, 2): '7cb9d34ccefd041bfc3ed08e066284ed8e2ad13c5e3a926808ee73a9a413955b',
    ('a_t', 7, 5, 1): 'a4be376a66221faf593415cb6f70f7728e462a7470d0ec03e61a86691fd91a28',
    ('a_t', 7, 5, 2): 'fb382337dc53cc9cf39e94ec6fb824735659614bb35a7fe1e9713b3c13ba841f',
    ('a_t', 8, 5, 1): 'c5bc2b7a095f9c39b5687517668903590b0c5288649b2e84bf844215afa9e7c3',
    ('a_t', 8, 5, 2): '54f140af46da544dd750016ed8f34e2b2d11f1040564de447cb63b6b7abca752',
    ('a_t', 5, 6, 1): '1b69e014bfb0e9b2792dffd329f35a0f05038d2191a287ddcbeaf877132f531c',
    ('a_t', 5, 6, 2): 'a26a7e02027a394213a0738a0efa8a9dc98c34476d6059d27fa3c221d7d76e39',
    ('a_t', 5, 6, 3): 'a1a31a2605ea30ecb792840e10538286769053888903c73b1a930a7e7470e96a',
    ('a_t', 6, 6, 1): '0c2fb972da316359db2d6e5c8b009f236e3391a87ef2ae9b37470482f7ff37ac',
    ('a_t', 6, 6, 2): '93b5054fe0b07c08939e95fa711a59cf0239002f8d92a7ef0d9018cb65b51366',
    ('a_t', 6, 6, 3): '8eec68cda3d1e66ac9409295e668a65244894773634557cb3be33fe90858c4f5',
    ('lempel', 3, 3, None): 'c61192467e5d41757fba0feb1f6dcdbc80c3aa18c7d6f4259d6830f4773713d8',
    ('lempel', 4, 3, None): '1756f49704bd3997525100401dcaf8ddfb1ef898d2de5544f1c325b4e3f65fa7',
    ('lempel', 5, 3, None): '3c1e389f5d4885882348b02478b8443f2add6ee4fe7e11a7880d329689e4ae28',
    ('lempel', 6, 3, None): '83ec0158d08f6034b74f5c6417d28db31f027e6229cc112c4628e1fc9622f3fc',
    ('lempel', 7, 3, None): '081046e25efe630fad84cd0c18794b0a932684f6d3bb32dc15e0a65bdbe5658e',
    ('lempel', 8, 3, None): '2e8e2514ec77e93f674a227c0c5d38a9bf8c0ec0825f6dba625775f3efe0c439',
    ('lempel', 9, 3, None): 'ae4cad51d68786ce131a86aded68d186d5913949b2c8825f1922e043fcf2286f',
    ('lempel', 3, 4, None): '80c190c1cfa9d57daca6cb269a3ca1352061f2cbea60a4e05f9cd14863722ddc',
    ('lempel', 4, 4, None): '3b4888ad3dcd252a0a1f1da376d8ada6ef2c9dc763a0ec41ecc67b373c8d27cc',
    ('lempel', 5, 4, None): '3461264f3846c592019cb55b2d1f217d1f11a11cf1effe5bed465f5de6d62865',
    ('lempel', 6, 4, None): '4fbc74bf58d85e75b9cca84f85094e400f6d4e3e8505be8dd26f1e27ab1ee671',
    ('lempel', 7, 4, None): '08ac7b5f45453cdfdce745a62e160d6482fd17530551fb92c65af564abd93099',
    ('lempel', 8, 4, None): '8faeeb706f4da2f54273789e70bf42b3b2fa537fe7543aa62b07b54c2bf77bb3',
    ('lempel', 9, 4, None): '2b503ee6db0e251cf43a1a8c67448db53a6412a88e1c9fb95497b86b12981f65',
    ('lempel', 3, 5, None): '2ef7904ffc709175997684f072d1b28f86437130f21e851441b495da30aa74e0',
    ('lempel', 4, 5, None): '66c1b75cd39af7a52eade4a5cc7806a808f730267153fdc5ea79e2cf789bfebb',
    ('lempel', 5, 5, None): 'fdcdc7e58d305e1052048d0d6bca71e2d9578722f77a858ad610123c30f24c7a',
    ('lempel', 6, 5, None): 'bcd5f2d418a285b4a0d596583a7c44a5857817c71f428eb205b6ce4c69743780',
    ('lempel', 7, 5, None): '50a96fb5fd6cb3de685fa1965bd878d88a20e6cdaeac6fef141dcf44b4a1d81a',
    ('lempel', 8, 5, None): '888a1493e8696e77969fe06dd976d7ef983f5ad6423973323bc1354df95fb7bd',
    ('lempel', 3, 6, None): 'e7f96abcd02b7b15138a136e631f3bc5606a4444fdb8f1d7b9be8586fff6aadd',
    ('lempel', 4, 6, None): '71cbf6974315183b5e4c10ac49fffc577c77d81471ee2995c49b1b4821613927',
    ('lempel', 5, 6, None): 'ae1f658f973f22ee300a6c633d5e948481f299d9c4535a74f1ff6122f19a51dd',
    ('lempel', 3, 7, None): '7a9da50ea837a000f74ce5cc9c61f29aa4075f8554e55f9a7389a52261c4d70c',
    ('lempel', 4, 7, None): '46700cf324d8120deccdadc62768da1ae0d550c4991bfe7a7935f2c5596ee656',
    ('lempel', 3, 8, None): 'b8cceaef13c0217c2cb5ef3af2dfcc3cd767d7886ed29f512d50752902dd2759',
    ('lempel', 3, 9, None): 'fd759a3742c10c764378a8cf2cada496acc942b49ab3de12fbd16a5e8e0278d5',
}


@pytest.mark.parametrize("cell", list(EXPECTED), ids=str)
def test_generate_output_is_pinned(cell):
    method, k, n, t = cell
    recipe = ConstructionRecipe(Method(method), k, n, t=t)
    want = EXPECTED[cell]
    if isinstance(want, str):
        seq = generate(recipe)
        assert hashlib.sha256(seq.symbols.tobytes()).hexdigest() == want
        return
    with pytest.raises(ConstructionError) as err:
        generate(recipe)
    runs = tuple((size, len(list(group))) for size, group
                 in itertools.groupby(err.value.component_edge_counts))
    assert (err.value.component_count, runs) == want
