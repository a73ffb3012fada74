"""numpy's exponential ziggurat tables, the data ``streams.Streams.standard_exponential`` reads.

``TABLES`` packs ``ke_double``, ``we_double`` and ``fe_double``, 256
little-endian 64-bit words each, the last two the bits of doubles, as one
base64 literal. They are numpy's own tables
(numpy/random/src/distributions/ziggurat_constants.h), copied rather than
computed: Marsaglia and Tsang's recurrence does not give numpy's entries bit
for bit. numpy is distributed under the BSD 3-Clause license:

Copyright (c) 2005-2025, NumPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions are
met:

    * Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    * Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    * Neither the name of the NumPy Developers nor the names of any
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

TABLES = (
    "xpckJxRSHAAAAAAAAAAAAH4xnNdbfRMAEDw/jvVuGACusA4yt5saAHxEGfcn0RsAGmWIDx2VHABy"
    "OVwt/hsdALIYa9Vbfh0AcCwX3TTJHQDInazfCQQeADZ41HF7Mx4Aord8F4taHgBsBG8JQnseAD6u"
    "CK8Nlx4AnvBOsfWuHgBWZbQHvcMeAM6Zh/D21R4AiFZurhTmHgDQHDbKbvQeAKTU3XZLAR8Atpan"
    "E+MMHwB69/FpYxcfAHAlRQzyIB8AdKhRGa4pHwAyVbmPsTEfAAbBV1ESOR8ATGlu6+I/HwD6iNcy"
    "M0YfAA46Hb8QTB8AIjNcTIdRHwDA7MMJoVYfAJaZCdlmWx8AjNAQguBfHwByV0TdFGQfAHiWhfYJ"
    "aB8A5gIrKsVrHwD05DI9S28fADrxkHGgch8A1glNl8h1HwDAXAQbx3gfAPQ/QRKfex8Aip8HRlN+"
    "HwA4EeI75oAfAGKRrT1agx8AErlWYLGFHwBiQrKJ7YcfAPp0k3UQih8ArDk9uhuMHwBK0EXMEI4f"
    "ABY+AQLxjx8A4FiDlr2RHwDYr0esd5MfANpki08glR8AkjhjeLiWHwCSiJYMQZgfAIC6RuG6mR8A"
    "AH9pvCabHwB6cRtWhZwfAALYz1nXnR8AzqFhZx2fHwDANgkUWKAfADgzOuuHoR8A/MRrb62iHwCC"
    "Bs4ayaMfAKJq7l/bpB8AfAlNquSlHwCCZ+Re5aYfAMQepdzdpx8AdKjmfM6oHwDuX86Tt6kfAFi4"
    "rXCZqh8AMoJYXnSrHwCEBXSjSKwfAOifv4IWrR8AwIJXO96tHwBsHfIIoK4fAH6wGCRcrx8AEnpb"
    "whKwHwD034EWxLAfAPrxtlBwsR8AOpaynheyHwBKqN8rurIfABhOfyFYsx8ADL7JpvGzHwDWrAzh"
    "hrQfAPyTx/MXtR8Aqv3FAKW1HwBY/jcoLrYfAAoByYizth8AmAe1PzW3HwCofdxos7cfAAi61h4u"
    "uB8A9kcDe6W4HwB0D5qVGbkfAARyuoWKuR8AJm95Yfi5HwCG4u49Y7ofABbsQS/Luh8ARJG0SDC7"
    "HwDipK6ckrsfAJ4CyDzyux8AlCnSOU+8HwDUQOGjqbwfAJ6PVIoBvR8AnHLe+1a9HwBq1osGqr0f"
    "AEA/y7f6vR8A3mRzHEm+HwBeaclAlb4fACixhjDfvh8AdGHe9ia/HwDiioKebL8fAMQEqTGwvx8A"
    "sP0PuvG/HwCIRQJBMcAfALJUW89uwB8AJhSLbarAHwCKaZkj5MAfAGSKKfkbwR8AQhl99VHBHwBK"
    "D3cfhsEfALR0nn24wR8AQuogFunBHwDeBdXuF8IfAP6DPA1Fwh8Awk+GdnDCHwAOY5AvmsIfAEaA"
    "6TzCwh8AtMbSoujCHwDsIkFlDcMfAA6c3ocwwx8Axn4LDlLDHwD4Zt/6ccMfAIYoKlGQwx8A+pd0"
    "E63DHwBIMwFEyMMfAECrzOThwx8AqE2O9/nDHwBgULh9EMQfAGj9d3glxB8Axr+16DjEHwAqERXP"
    "SsQfAOhH9CtbxB8ABEVs/2nEHwCyAVBJd8QfALj7KwmDxB8A9n9FPo3EHwAa0pnnlcQfALAw3QOd"
    "xB8AMrR5kaLEHwD8B46OpsQfAIz76/ioxB8AnuoWzqnEHwA0+kELqcQfAKAoTq2mxB8AdC7IsKLE"
    "HwDiLeYRncQfAPQthcyVxB8AwF4m3IzEHwB6I+w7gsQfAObeluZ1xB8Agn6B1mfEHwA2wJ0FWMQf"
    "ACAucG1GxB8AmMsLBzPEHwAObg3LHcQfAPa7lrEGxB8AYstIsu3DHwA8WT7E0sMfALSRBd61wx8A"
    "TGGZ9ZbDHwCSRVoAdsMfAHCTBvNSwx8AGCiywS3DHwCIeL1fBsMfAGLyy7/cwh8Anp+507DCHwDw"
    "/I+MgsIfAGTxedpRwh8AntO2rB7CHwBWZ4zx6MEfADy7N5awwR8AEM3chnXBHwC21nSuN8EfABQk"
    "u/b2wB8ApE0YSLPAHwDwr4uJbMAfAGTzkqAiwB8AuHIPcdW/HwCOSCndhL8fAArGL8Uwvx8Axgx3"
    "B9m+HwDafTKAfb4fABSmSwkevh8ACEQ1erq9HwAm+LmnUr0fABogxmPmvB8A5E0sfXW8HwCqt2O/"
    "/7sfAKLmP/KEux8AjNGg2QS7HwCscBo1f7ofABi2kr/zuR8A/KvULmK5HwAWShczyrgfAFRbdnYr"
    "uB8AXIlbnIW3HwCUVdVA2LYfAEJp2fcith8A4DdvTGW1HwDSab+/nrQfAEbnA8jOsx8APpxTz/Sy"
    "HwBSKEQyELIfAASWWj4gsR8AwuFCMCSwHwCmecQxG68fAAThZ1cErh8Aci2/nd6sHwAKBkDmqKsf"
    "ACj/mfNhqh8AomZvZQipHwA8jVCzmqcfABTy0SYXph8AAOqL1HukHwCUwMWTxqIfABTzffT0oB8A"
    "Cr5rMwSfHwC8+Xkr8ZwfAMSrFUS4mh8AuC94W1WYHwB4P9Crw5UfAPLxzqn9kh8AHOSa2vyPHwD4"
    "hXOeuYwfAAaWR+wqiR8AjtsE+UWFHwCaAzbD/YAfACbpOXhCfB8AzCpYowB3HwAcJBoPIHEfACo1"
    "tzSCah8AZuKoAABjHwDE40+QZlofAHIRzk5yUB8A2m9cZsdEHwCiWYqj5TYfAAo0UDQUJh8AFAR7"
    "BD4RHwDmy1f6rvYeAB4ViKGM0x4AsC0SHqaiHgB8JovHYVkeALALrCv23R0AwOjk2U3bHADBXb+U"
    "7GTRPBlBXYudWGA8K01bSbLWajy6jVupNZNxPHMqSuXmInU8gHrC+5BQeDzMt3nv0Th7PJi9bbfY"
    "7H08PFzGSfA7gDxw9tYk23CBPDMm2pACmII8ym49/oizgzwh/gvGFcWEPMNKAp34zYU8vSun8EDP"
    "hjwZ0BfazcmHPG9g01RZvog80jciVYCtiTwDUl2+yJeKPMSj3d2lfYs8iT+M13tfjDw2fPFNoj2N"
    "PFpz8XhmGI48qk9fzwzwjjwJMmhd0sSPPFh1au12S5A8/ICbR0izkDyv9UmH8xmRPKDfS+uMf5E8"
    "50k+6SbkkTwu/zhl0keSPAtoI+GeqpI8S9ompZoMkzwCgm3i0m2TPKBiIdFTzpM8SGdwyigulDwS"
    "5zVfXI2UPJMLzWv465Q8TW94KQZKlTz9vrg9jqeVPM8u3ceYBJY84GgMbS1hljxEqfpiU72WPLuQ"
    "eXkRGZc8c3kHI250lzxygX58b8+XPJnV/lMbKpg87OErL3eEmDwqxdBQiN6YPESi/b1TOJk8OBOt"
    "Qt6RmTy/A/91LOuZPEqIFL5CRJo8YdKWUyWdmjzJJPJE2PWaPJuXTHlfTps8iY8/s76mmzyZ/lmT"
    "+f6bPJ/ScJoTV5w821rCKxCvnDz75vCO8gadPI1r2PG9Xp08V5BCanW2nTz+MXz3Gw6ePEQQz4O0"
    "ZZ48Yhvi5UG9njyflALixhSfPLX+VytGbJ88oakEZcLDnzzZPJoRnw2gPGKxDfZdOaA8+HZyHB9l"
    "oDxyAEu745CgPDcBcQOtvKA8Zi96IHzooDwVrBc5UhShPL59cG8wQKE8+3934RdsoTyWIz2pCZih"
    "PINSPd0GxKE84sSpkBDwoTwFDrHTJxyiPCmjwrNNSKI8nxjQO4N0ojyqzYt0yaCiPF07pWQhzaI8"
    "IRcDEYz5ojwRdvt8CiajPKEbiqqdUqM88BqFmkZ/ozz8789MBqyjPG0zjcDd2KM8xAlP9M0FpDzQ"
    "bEbm1zKkPKdscZT8X6Q8xIPI/DyNpDykGGsdmrqkPOpFy/QU6KQ8+wDZga4VpTz4tSzEZ0OlPCdv"
    "MbxBcaU8+ZxOaz2fpTw1kxHUW82lPCbPVvqd+6U8Lhpz4wQqpjyMm1yWkVimPO7r0xtFh6Y83zyN"
    "fiC2pjwIplnLJOWmPPupUBFTFKc8HAT6YaxDpzww0XfRMXOnPAoksXbkoqc89xd9a8XSpzx3cs7M"
    "1QKoPCrm37oWM6g85whhWYljqDxUD6TPLpSoPJRgzEgIxag8ExX+8xb2qDzhc44EXCepPIqCNbLY"
    "WKk89LtAOY6KqTxdA8fafbypPFHp3dyo7qk8LVnQihAhqjyQxlY1tlOqPA/z0DKbhqo8emWB38C5"
    "qjz/rMqdKO2qPLWLbtbTIKs8QiXP+MNUqzy2TzJ7+oirPBAmB9t4vas8hf0tnUDyqzwt4EJOUyes"
    "PKSx6oKyXKw8+yMj2F+SrDxspZXzXMisPIBx7YOr/qw8rfIwQU01rTz+ox7tQ2ytPAqljVORo608"
    "fzXSSjfbrTybUCa0NxOuPFKkFnyUS648fyP0mk+Erjx4dkoVa72uPGiRW/zo9q48f7ygbsswrzzQ"
    "XlGYFGuvPOXh77PGpa882AndCuTgrzzUEfl6Nw6wPBs5Ee80LLA8oySSnmtKsDzbJhHP3GiwPA+t"
    "Os+Jh7A8Gcgz93OmsDxvlACpnMWwPLfP71AF5bA8zu8LZq8EsTxKFZJqnCSxPCs6b+zNRLE8wQTE"
    "hUVlsTyerm/dBIaxPCB4oqcNp7E8Wip4pmHIsTxwM5uqAuqxPKL08JPyC7I8UOVPUjMusjy6O0Dm"
    "xlCyPKbax2Gvc7I8K1NC6e6WsjxR20W0h7qyPHAtlg583rI8ZVkmWc4CszzQpyoLgSezPGXJO7OW"
    "TLM8VqiM+BFyszxDUTSc9ZezPIOLjXpEvrM80N6tjAHlszyt7vXpLwy0PPhCvcnSM7Q8LMkbhe1b"
    "tDwylNOYg4S0PEyhXaeYrbQ8J7EcezDXtDwIlbkITwG1PLKqrHH4K7U8Wqf4BjFXtTxhRBtM/YK1"
    "PAfhOPphr7U8nr2IA2TctTx5GAiXCAq2PJQueyRVOLY8MvTDYE9ntjzuSJdK/Za2PB57mi9lx7Y8"
    "ByX0sY34tjwY0lzOfSq3PMNxveI8Xbc8+XFrtdKQtzzTdhR9R8W3PBIUbumj+rc8w77ALPEwuDxC"
    "c2gGOWi4PKtbac6FoLg8lTY7guLZuDxEdfPSWhS5PA4q/DT7T7k82BqN8dCMuTzq2SQ66sq5PHjx"
    "ST5WCro8O0zoQyVLujzqhq3CaI26PMRF2IIz0bo8CrYDwJkWuzwP6pFQsV27PF7adtKRprs8d+9L"
    "3lTxuzyn4MJBFj68PPTIyEL0jLw8f6ny7A/evDzFOCdrjTG9POw77G+Uh708n/FOr1DgvTxgCRlu"
    "8ju+PMGD8yqvmr48SupQZ8L8vjyn95GXbmK/POXG9kP+y788Luxis+IcwDzvjvWLEVbAPE6ly83B"
    "kcA8oEhdeDHQwDymkkMDqBHBPCpEdWd4VsE81sKzvAOfwTx8+smgvOvBPJ+RWbYrPcI8papJrvWT"
    "wjzwEUSK4/DCPF73zCfuVMM8YbjIx07BwzxiE+RmlzfEPNFRR83XucQ89nPPPNhKxTzSE3Pheu7F"
    "PHK/S21nqsY8L8bq1lCHxzwZ7fLmn5PIPIV7SA3c6ck8/HHaUZ7DyzyDu34p2cnOPAAAAAAAAPA/"
    "NxGI5UUF7j/x/4FQptDsPyd763sA5es/Kn/mDg8h6z/n+mKlunbqP5ttVRWX3uk/OapVxDFU6T8v"
    "0tN2o9ToP7jFBnjoXeg/JjEkLYru5z9+1AmbboXnP2NLqVu7Iec/xhiEScPC5j8GXE9t+mfmP2av"
    "p8HtEOY/daxMaT295T9zh9qCmGzlP5qJeBW6HuU/r/hRwWbT5D9p4I77aorkPyXhqK+ZQ+Q/gIux"
    "K8v+4z8U0eFE3LvjP9ndCKeteuM/GGMORSM74z9e2kXjI/3iPyRPH7aYwOI/vTIREW2F4j+jUIwi"
    "jkviP8g+gbrqEuI/iXuHGXPb4T8lOx7HGKXhP+5vzm3Ob+E/nBYzvIc74T+NwxxKOQjhPyseK4HY"
    "1eA/KtBUiFuk4D99O+4xuXPgP0hl0uvoQ+A/JPNgseIU4D92RSH+Pc3fP/rFv44tct8/TULr0YYY"
    "3z+QnZZLPcDeP1HTfTZFad4//DfhdZMT3j8MIaeIHb/dP3rtuX3Za90/Cxp+6b0Z3T+S4EDcwcjc"
    "P2D7g9nceNw/g6UO0AYq3D+17q4SONzbP4gLmVFpj9s/b4BUlJND2z9f7yg0sPjaP+X2/da4rto/"
    "QAGjaqdl2j/0IXUgdh3aP5I3Wmkf1tk/qHsJ8p2P2T8QgZqf7EnZPwRdVIwGBdk/OV23BOfA2D+M"
    "P7yEiX3YPzhhRLXpOtg/Wc62aQP51z8egMad0rfXP+NyXnNTd9c/6o2wMII31z+dnmQ+W/jWP5zp"
    "5CXbudY/nw3Gj/571j/kJ0hCwj7WP3ZY7x8jAtY/bO4xJh7G1T/vqTpssIrVP+ejvSHXT9U/9Yne"
    "jY8V1T8d+SYO19vUP9PaixWrotQ/776AKwlq1D/iQRjr7jHUP06hMAJa+tM/hbKrMEjD0z/vfbFH"
    "t4zTP93Q/CilVtM/NSQxxg8h0z9wQjkg9evSP2IirkZTt9I/KXZFVyiD0j/9dkd9ck/SP/9+C/Ev"
    "HNI/2wl7917p0T9avJrh/bbRP4IZGQwLhdE/75Hi3oRT0T+6n7rMaSLRP2ym2VK48dA/M1OP+G7B"
    "0D8TPulOjJHQP9KQXfAOYtA/LHx5gPUy0D9qR5OrPgTQP1ST/0zSq88/fj6WXOdPzz+b4OgPuvTO"
    "P/JAWQBIms4/p4Mv1o5Azj85TyJIjOfNP7ju4xo+j80//TG0IKI3zT+f0PY4tuDMPwIYzk94isw/"
    "7q+5XeY0zD81RDln/t/LP6Xkcny+i8s/Pu/cuCQ4yz8LW+tCL+XKP0k8wEvckso/vFzfDipByj8S"
    "xeTRFvDJPyMWPuSgn8k/oZLmnsZPyT95uyVkhgDJP9ViUJ/escg/+RqMxM1jyD/m55RQUhbIP64b"
    "hchqycc//kafuRV9xz85KBq5UTHHP+qE7mMd5sY/KNqmXnebxj+s0TBVXlHGPzFqsPrQB8Y/tsJU"
    "Cc6+xT/1eC5CVHbFP0mMB21iLsU/+rY8WPfmxD+WMJjYEaDEP8bMLcmwWcQ/mmo4C9MTxD8FqfiF"
    "d87DP8nVlCadicM/rwz630JFwz9ufb6qZwHDPzTPBIUKvsI/QJlgcip7wj946Lt7xjjCP2XKPa/d"
    "9sE/ZtYxIG+1wT94rvDmeXTBPy9xySD9M8E/IBfs7/fzwD8vtlR7abTAP76lt+5QdcA/BH9ueq02"
    "wD+N6sum/PC/PxQEGWaFdb8/PMODrvP6vj/MuY4ERoG+P/u6YfV6CL4/mJOtFpGQvT/XTZEGhxm9"
    "P1f9gGtbo7w/rxAu9AwuvD+PJnFXmrm7P0hlNVQCRrs/ZVRlsUPTuj+3ONk9XWG6Pyj0RtBN8Lk/"
    "cGszRxSAuT+5dOWIrxC5PztTWoMeorg/usQ7LGA0uD/zpteAc8e3Px48GYZXW7c/thaESAvwtj8g"
    "tjDcjYW2P/feylzeG7Y/PruR7fuytT820Fm55Uq1PynZkPKa47Q/XJhD0xp9tD8OsSWdZBe0P56f"
    "m5l3srM/GOfGGVNOsz/RjZR29uqyP3AFzhBhiLI/jJ0sUZImsj9Ao2+oicWxP5JTdY9GZbE/UMpW"
    "h8gFsT87G4cZD6ewPxfI9dcZSbA/dpZputDXrz806ESZ9B6vP+WyLqWeZ64/EFgxSc6xrT9KeR4D"
    "g/2sP+khB2S8Sqw/hdm+EHqZqz+EgGrCu+mqPzjxG0eBO6o/THx7gsqOqT9td4Bul+OoP2s5Ohzo"
    "Oag/ngirtLyRpz9Sr7Z5FeumP0GgJsfyRaY/ytLFE1WipT/rxZbyPAClPxlrJhSrX6Q//xj/R6DA"
    "oz+uFD9+HSOjPwzAVskjh6I/1BLzX7TsoT+hsxmf0FOhP1HWfAx6vKA/7voNWbImoD+QmK/H9iSf"
    "P2h0UXqu/50/DBszVJDdnD9wWPpQob6bP5tOkubmopo/SCoTD2eKmT9nmexTKHWYP5b8h9oxY5c/"
    "d0CicotUlj9RAqumPUmVP77wh85RQZQ/hF0xJdI8kz8yOrnhyTuSP19fclRFPpE/8AIeCVJEkD/O"
    "x4ne/ZuOP1cnbhS5tow/LclCVfrYij+9p49o6gKJP/V0qua2NIc/yxbkC5NuhT9ib1HBuLCDP3F2"
    "s+1p+4E/+ddfKfJOgD/FXXT6UVd9PzZIl9TpI3o/IDbsN58Edz/9IuPOl/pzP0NAV2k9B3E/EUvN"
    "gbNYbD///qHziNhmPySj4ahrlGE/JT4MVLUrWT+5/I33CrJPP0sLnzIcwz0/"
)
