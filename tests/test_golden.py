"""Byte-identity gate for the command line.

Each entry pins the sha256 of the file one invocation writes: the
`generate`, `stats` and `polygon` examples of README.md, plus json, f64le
and --start variants of every stream kind and tables of several windows.  The digests were taken before
the streams carried their integer state as arrays, so they show that
carrying it changed no output byte.  A digest changes only with a
deliberate change of output format.
"""

import hashlib

import pytest

from filament_prng.cli import EXIT_OK, main

GOLDEN = {
    # The examples in README.md.
    "generate --kind vfe -M 3 -q 101":
        "c0ae6ba67b026dee20b50e4e4ca090ceef13a94e4787e8bbb3bc8f0b1062b07b",
    "generate --kind eicg -q 7 -a 1 -b 0 -n 7":
        "84bd7dab03cfdefbf609232c159f882ad270eb2ea0231b8aa858355c0690b837",
    "generate --kind lcg --preset randu -n 3":
        "0e526bb08fbc6ae20476ea864213593de65e86141f4f3b82b89f2bc729060307",
    "generate --kind compound --primes 5,7 -n 20":
        "7c867867377d60baa354ad743629477ce6a033a1eaedfbbe426baa677770ab1f",
    "generate --kind eicg -q 1009 --format f64le":
        "bd19e3c9ef914c8b1c5c68f82a421a745e99c4e8a24c5e1e093c3eddceaec41f",
    "stats serial --kind eicg -q 101 -k 2 --lags 0,1":
        "c54b5676024d924f88dc99d1c35afbc274294c25ce1da25660cc741186987608",
    "stats randu-planes -n 1000000":
        "8f7dce7a27119c338e1845e58df3f9fb05d60372bc960aeed201cbc2aa161891",
    "stats chi2 --kind vfe -M 3 -q 1009 --bins 20":
        "38f51cd8503351844447d87892ebc46494afc19a08b713ccb16602ebc8b3db97",
    "polygon -M 5 -q 3 -p 1":
        "f3c05c3c34892ad3809fd0ea7bdf1dca0b84908709ae7044f32e3c841991f886",
    # json, f64le and --start variants of every stream kind; vfe includes
    # q = 2 mod 4, and the moduli reach the 2**31 bound.
    "generate --kind eicg -q 101 -a 17 -b 5 --format json":
        "098460a3918cb522c63c09316d038d01462035c94974c0cfd06d6b73df2619ab",
    "generate --kind eicg -q 1009 -n 50 --start 500":
        "2c0a72e8adebd867a7382b9cdc8488fe142bbac031c47b618db499b6a5bbc3f2",
    "generate --kind eicg -q 2147483647 -a 65539 -b 3 -n 40 --start 1000000":
        "116853179485c921809a0ea286a0fefcff3415e183340ec46b0014b552eb2acd",
    "generate --kind eicg -q 2147483647 -n 40 --start 999 --format json":
        "6be1d6bc6066056b430605f669cac5b63796097774f2637546b3d6c99a8cdcb3",
    "generate --kind eicg-pow2 --omega 10":
        "7ee378e9b7878a0b59f85e526af079bb9fe9ad8ae48cdf302dbc0af3b47e60f2",
    "generate --kind eicg-pow2 --omega 31 -n 40 --start 12345 --format json":
        "8a9725558277253d1e30891e90661d83b8b9ff78cc9ea1b49f92eb6cf45702e9",
    "generate --kind eicg-pow2 --omega 31 -a 6 -b 7 -n 40":
        "69fcb537815a683daa9c412f58add1a6f8b687156c47c14ab4fe280b92a5e645",
    "generate --kind eicg-pow2 --omega 12 -a 6 -b 3 --format f64le":
        "47a724ecad574bc29862c2bd3b0bb9f48f32cea741dadc6958ad8a18740da705",
    "generate --kind eicg-pow2 --omega 6 --format json":
        "40e3883a4a6aae98c6a2c22c5e84d4dec1fcfe7b78a08f712d8647f881fc1f6d",
    "generate --kind lcg -a 69069 -b 1 -q 65536 --x0 7 -n 40 --start 5":
        "4a91f93d163129ae2c355e61788afb19264c3e924d33094cf7ee3ba08f9d5427",
    "generate --kind lcg --preset randu -n 100 --format json":
        "400321a028fa5eb1931e579d8ae18e8762c7198a985e0f668e62ee531164b660",
    "generate --kind lcg --preset randu -n 1000 --format f64le":
        "d829e0b4a9cc6c80b70376e7250b33b3844d23a3d68fccbb3fcadd5c24179751",
    "generate --kind lcg -a 1103515245 -b 12345 -q 2147483648 --x0 -3 -n 40 --start 100":
        "fe1976ea5bc2a818c42aac9a2be9fd1629d48068c3e0fa123c1157489e8641b4",
    "generate --kind compound --primes 5,7 -n 20 --format json":
        "28340aa499398cdd03a05b20c03051c389d077a80fdc55dbef34cfc5ccce3916",
    "generate --kind compound --primes 11,13,17 -n 30 --start 100":
        "daa62c0b33328f689576c0323736e23f7532b1d06bdc6546e218b42c593c0ec6",
    "generate --kind compound --primes 5,7 -n 50 --format f64le":
        "ee3b833615f4c5ac5c7b3592396ee8cbae55c98a0a32df8fd24ea44b43d4cc03",
    "generate --kind compound --primes 997,991,983 -n 30 --start 5000 --format json":
        "e92c2a2fd954ed3bac21f351310a12232876d17357250e87cb14cecc23b8994d",
    "generate --kind vfe -M 3 -q 101 --format json":
        "f0f1db564829bad41d3b886221b9568a0f9fdd016a4c7982be88feb58d319020",
    "generate --kind vfe -M 4 -q 202":
        "d489d28e44e77aadce1afc6bb887a951e96bcaf1e2a4fb05fd08a797aa3a34c1",
    "generate --kind vfe -M 5 -q 128 --format f64le":
        "9f4b3e67d72d75d8993a4cfac5c746e5e855af2db6478e436e4251f7537fe467",
    "generate --kind vfe -M 3 -q 30 --format json":
        "ffd3e221f44a48a63a67ec0acbf54c89888eda861c674d705cd9eb8ea9d9e8e6",
    # Reports over every stream kind.
    "stats serial --kind vfe -q 202 -k 2":
        "0fca87e474372793c94cfa4b89173493df8d8221878f417a05d49bcfe74c9276",
    "stats serial --kind eicg-pow2 --omega 9 -k 2":
        "00db9998214c2c1c8bd156b324d393fb8c52c019f08d01002f151ab8a1ba6f56",
    "stats serial --kind lcg --preset randu -n 101 -k 3":
        "6515191a223bcd74a653b4f76f4a4337b349594e209d6bc58088424b5f872df6",
    "stats serial --kind compound --primes 5,7 -n 48 --start 3 -k 2 --lags 0,5":
        "db2f8d0130f3b1c36923c374d61b4497cecbf9779c7709526182162002cba56f",
    "stats chi2 --kind eicg -q 1009 --bins 10":
        "a80e5db11ce52a3e2cee6f4c6647d85ee4f5bbfbeda9023f71d396ee8835259e",
    "stats chi2 --kind eicg-pow2 --omega 12 --bins 16":
        "8c07134b5a23b8ba04ca4cceadf00526b9c11196464b90adeb67559441649b82",
    "stats chi2 --kind lcg -a 69069 -b 1 -q 65536 -n 5000 --bins 50":
        "ed81f0897bb546263a8a89bedef08fcde04c7390b52dd3c88b75e6a8d63ebfc7",
    "stats chi2 --kind compound --primes 5,7 -n 200 --bins 7":
        "803646c7a2b52744a0393a0d09e5f3d4c3a3dbb87735b801a125b3d0447d5828",
    # Every table layout in both text formats, empty tables included.
    "polygon -M 5 -q 3 -p 1 --format json":
        "dde20002edc60cc9e654a6a80f79fca01c543942381dc82b2db0b81574c058df",
    "polygon -M 4 -q 6 -p 5":
        "1091851ee83242344df863d8db6690b4de3e9aa9808e16e8a3f3181500612d39",
    "generate --kind vfe -M 3 -q 1":
        "2aff7576e2421e14a591f8e655e6628da42fa613521fb095ae1ed97364c8e65c",
    "generate --kind vfe -M 3 -q 1 --format json":
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "generate --kind eicg -q 101 -n 0 --format json":
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "generate --kind compound --primes 5,7 -n 0":
        "ebb30c73d88b1264b1187f8ebff489a30aabfe25eda39f9773165dd1fabefef0",
    # Polygons at q = 0 mod 4 and at larger q, where a phase computed with
    # np.arctan2 instead of math.atan2 moves by an ulp and changes bytes.
    "polygon -M 6 -q 12 -p 5":
        "6834a31e0f349c560410a2c6c6130d57d01140a492f345b44bbceaa818a6b5bb",
    "polygon -M 7 -q 97 -p 3 --format json":
        "d4b8586da06ba1d94b8b92682453a83ef1d5e1a56d1da800bc94ca3130e4c6df",
    "polygon -M 3 -q 1024 -p 511":
        "f791109d26fa5b94966199709704b15e619cf14d4fb002153a9025bac210208f",
    "polygon -M 5 -q 998 -p 7":
        "6db62f83fc185919e95d12ca9d16e7428547f2143afd8cc9b44ad07506aa83b7",
    # Tables of several 2**14-row windows, pinned before generate and
    # polygon wrote one window at a time.
    "generate --kind eicg -q 65537 --format json":
        "bd7bd5dc6ef0ae28cf8f7daa8670ce65b532fe13b2edeba08d1ca977e47355c3",
    "generate --kind vfe -M 3 -q 40009":
        "877c7c31389715a556f9113df9c26e7bb34d64dd3c9aa698c32b2c009eb95a71",
    "generate --kind compound --primes 5,7 -n 40000 --start 3":
        "72546b19d4a76190721bb43ef5b0e845dfa33adc9e868bc81f53f5b55442a612",
    "polygon -M 3 -q 20011 -p 5 --format json":
        "8b97e9c2209199687ec380ea38236bcd82a83c4a44506a6390e882c81fd31399",
    # The exact star discrepancy at k = 1, 2 and 3: EICG clouds up to
    # N = 4093, and LCG clouds of period 64 and 16 whose coordinates tie.
    "stats serial --kind eicg -q 1009 -k 1":
        "704a86480d17fd5fd8ca16109538e482a06f441400479ae1a845e2492427f102",
    "stats serial --kind eicg -q 4093 -a 17 -b 5 -k 2 --lags 0,1234":
        "f58a24095f58cd2a73bbb68b0f72a2c70b03c30f401fd679aec59ca59ccdf313",
    "stats serial --kind eicg -q 401 -a 17 -b 5 -k 3 --lags 0,100,250":
        "58d3ce90c3d3fc0710104d4dccb872fd772dd6dff8757a73f7debd32a07cc64b",
    # The largest k = 3 grid MAX_EXACT_BOXES admits, (1021 + 1)**3 boxes,
    # pinned before the scan skipped blocks by their corner bounds.
    "stats serial --kind eicg -q 1021 -k 3 --lags 0,1,2":
        "01b08dd97d0fce582a8e0ac8166750965bcb148dd2eeb18b911a6ec980fd49a4",
    "stats serial --kind lcg -a 5 -b 1 -q 64 -n 300 -k 3":
        "848353b1b5dfb4325a1a161fd81627c3ab20f4f37b3bc7f642deb4daf79ecc63",
    "stats serial --kind lcg -a 5 -b 1 -q 16 -n 200 -k 2 --lags 0,3":
        "48db7bbbd44228bd28a22656966eefd15f7bbeb3023eb662250c391516e18021",
}


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_cli_output_is_pinned(argv, tmp_path):
    target = tmp_path / "out"
    assert main([*argv.split(), "-o", str(target)]) == EXIT_OK
    assert hashlib.sha256(target.read_bytes()).hexdigest() == GOLDEN[argv]
