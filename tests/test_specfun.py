"""Special-function layer: series values, closed forms, identities."""
from __future__ import annotations

import ast
import cmath
import inspect
import itertools
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tailsurv.specfun
from tailsurv.errors import ConvergenceError, DomainError
from tailsurv.specfun import (BesselOrder, riccati_combos, riccati_large_x_combos,
                              riccati_pair_with_derivatives)

WRONSKIAN_BETAS = (-0.4, -0.1, 0.3, 0.7, 1.0)

# High-precision reference values (j, n, j', n') computed with 40-digit
# arithmetic from the cylinder-function representation
# sqrt(pi x / 2) * {J, Y}_{beta + 1/2}(x).  The x = 12 row carries a
# looser tolerance: alternating-series cancellation leaves an absolute
# noise floor of order e^x * eps on the small components.
REFERENCE_VALUES = [
    (-0.4, 0.5, 1.0e-12,
     0.765561755255853996, -0.516031899457786485,
     0.739795869073453118, 0.807566114982302177),
    (-0.4, 7.3, 1.0e-12,
     0.997223441733800867, 0.057954354532267881,
     -0.0577902188202499718, 0.999425769050503494),
    (0.3, 2.0, 1.0e-12,
     1.018858013600787, 0.0485043701573053358,
     -0.0637734769420884266, 0.978454990156061644),
    (0.7, 0.05, 1.0e-12,
     0.00303980564133138491, -6.86878035025411458,
     0.103318845492233522, 95.5079299559585215),
    (0.7, 12.0, 1.0e-9,
     -1.00100985975879141, 0.0457627579362335134,
     -0.0452347380671215148, -0.996923181028398484),
    (1.0, 3.0, 1.0e-12,
     1.03703249928706786, 0.18887749080694793,
     -0.204557491702488733, 0.92703333299812948),
    (-0.1, 0.37, 1.0e-12,
     0.426879377885979423, -0.858785336277833651,
     0.981363210590931232, 0.368299977292335763),
]


@pytest.mark.parametrize("beta,x,rtol,rj,rn,rjp,rnp", REFERENCE_VALUES)
def test_reference_values(beta, x, rtol, rj, rn, rjp, rnp):
    pair = riccati_pair_with_derivatives(BesselOrder(beta), x)
    for got, want in zip((pair.j, pair.n, pair.jp, pair.np_),
                         (rj, rn, rjp, rnp)):
        assert got == pytest.approx(want, rel=rtol)


def test_zero_order_trigonometric_forms():
    x = np.linspace(0.01, 20.0, 400)
    pair = riccati_pair_with_derivatives(BesselOrder(0.0), x)
    assert np.max(np.abs(pair.j - np.sin(x))) < 1.0e-12
    assert np.max(np.abs(pair.n + np.cos(x))) < 1.0e-12
    assert np.max(np.abs(pair.jp - np.cos(x))) < 1.0e-12
    assert np.max(np.abs(pair.np_ - np.sin(x))) < 1.0e-12


def test_unit_order_trigonometric_forms():
    x = np.linspace(0.01, 20.0, 400)
    pair = riccati_pair_with_derivatives(BesselOrder(1.0), x)
    j1 = np.sin(x) / x - np.cos(x)
    n1 = -np.cos(x) / x - np.sin(x)
    j1p = np.cos(x) / x - np.sin(x) / x ** 2 + np.sin(x)
    n1p = np.sin(x) / x + np.cos(x) / x ** 2 - np.cos(x)
    assert np.max(np.abs(pair.j - j1)) < 1.0e-12
    assert np.max(np.abs(pair.n - n1)) < 1.0e-12
    assert np.max(np.abs(pair.jp - j1p)) < 1.0e-12
    assert np.max(np.abs(pair.np_ - n1p)) < 1.0e-12


def test_zero_order_point_values():
    order = BesselOrder(0.0)
    pair = riccati_pair_with_derivatives(order, math.pi)
    assert pair.n == pytest.approx(1.0, abs=1.0e-12)
    assert riccati_pair_with_derivatives(order, math.pi / 2).n == pytest.approx(0.0, abs=1.0e-12)
    assert pair.jp == pytest.approx(-1.0, abs=1.0e-12)
    assert pair.np_ == pytest.approx(0.0, abs=1.0e-12)


@pytest.mark.parametrize("beta", WRONSKIAN_BETAS + (0.5,))
def test_wronskian_is_unity(beta):
    x = np.linspace(0.1, 10.0, 331)
    pair = riccati_pair_with_derivatives(BesselOrder(beta), x)
    wronskian = pair.j * pair.np_ - pair.jp * pair.n
    assert np.max(np.abs(wronskian - 1.0)) < 1.0e-10


# beta = h/2 +- 10^-e: nu = beta + 1/2 within 10^-e of an integer, where
# the order's split nu = n + mu puts mu near 0
_GENERIC_BETA = st.floats(-0.49, 2.5)
_NEAR_INTEGER_NU_BETA = st.builds(lambda h, sign, e: 0.5 * h + sign * 10.0 ** -e,
                                  st.sampled_from((1, 3, 5)), st.sampled_from((-1.0, 1.0)),
                                  st.floats(2.0, 9.0))


@given(beta=st.one_of(_GENERIC_BETA, _NEAR_INTEGER_NU_BETA))
def test_wronskian_is_unity_for_any_order(beta):
    x = np.linspace(0.1, 10.0, 331)
    pair = riccati_pair_with_derivatives(BesselOrder(beta), x)
    wronskian = pair.j * pair.np_ - pair.jp * pair.n
    assert np.max(np.abs(wronskian - 1.0)) < 1.0e-10


# (beta, |z|, arg z, n^2 + j^2, n n' + j j', n'^2 + j'^2) at
# z = |z| exp(i arg z) (real z at arg 0), frozen from mpmath at 60 digits
# (agreeing with 90 digits to 2e-57): (pi z / 2) of the squares and
# products of J and Y of order beta + 1/2 and their half-derivatives.
# Every order lies within 1e-3 of nu = beta + 1/2 integer.
NEAR_INTEGER_NU_REFERENCE = [
    (0.499, 0.05, 0.0,
     12.768282686859726, -125.44496307318084, 1232.541536429769),
    (0.499, 0.5, 0.0,
     1.7439013918210513, -1.0498103511565384, 1.2054017407488369),
    (0.499, 2.0, 0.0,
     1.08068588936326, -0.03608094814023897, 0.9265428971305116),
    (0.499, 6.0, 0.0,
     1.010144505730642, -0.001653670907386399, 0.9899600789336211),
    (0.499, 10.0, 0.0,
     1.0037062930956506, -0.00036738746852099397, 0.9963075272641083),
    (0.499, 12.49, 0.0,
     1.0023833886077251, -0.00018972781479490803, 0.9976223143378385),
    (0.499, 0.3, -0.3,
     (2.3853925273930643+0.5646337385510017j), (-2.5799652649044855-1.9141916560960117j), (2.5128765329486247+3.5458487430256795j)),
    (0.499, 0.3, -math.pi / 4,
     (1.8464282455546304+1.3351459573982876j), (0.3014561274328733-3.328972908863206j), (-4.069358019653116+1.8555328941295113j)),
    (0.499, 1.0, -0.3,
     (1.2352695243393785+0.12280742278049545j), (-0.15924022725023135-0.14168271300700938j), (0.8094482623717288-0.04394432071148351j)),
    (0.499, 1.0, -math.pi / 4,
     (1.087754239463904+0.27325271376814275j), (0.07465342603622681-0.22066824494939308j), (0.8203078945925107-0.2363572854979562j)),
    (0.499, 2.5, -0.3,
     (1.0462573617225364+0.028485299403746153j), (-0.013695964244628055-0.014645241124606108j), (0.9550645625834465-0.025619068116638558j)),
    (0.499, 2.5, -math.pi / 4,
     (1.0065508998567694+0.056985003186099815j), (0.012001219391828636-0.01815533000852978j), (0.9901093872546791-0.05648711733555923j)),
    (0.499, 4.0, -0.3,
     (1.018780463110618+0.012178137184280204j), (-0.0035284957335378546-0.004060179251138515j), (0.9814218816646179-0.011703441606870936j)),
    (0.499, 4.0, -math.pi / 4,
     (1.0012437299534427+0.02309454690200821j), (0.003592375817569666-0.004410230669440938j), (0.9982194616283241-0.02305643660625947j)),
    (0.501, 0.05, 0.0,
     12.927500356455475, -127.53560997346932, 1258.2735534934359),
    (0.501, 0.5, 0.0,
     1.7494397683327654, -1.0589477578217614, 1.2125998232093604),
    (0.501, 2.0, 0.0,
     1.0811539655372426, -0.036303075640392, 0.9261566300627507),
    (0.501, 6.0, 0.0,
     1.0101995209256192, -0.0016627555516671288, 0.9899061957975871),
    (0.501, 10.0, 0.0,
     1.0037262200690773, -0.00036937304836848304, 0.996287749031432),
    (0.501, 12.49, 0.0,
     1.0023961788256193, -0.0001907494673726713, 0.9976095854205398),
    (0.501, 0.3, -0.3,
     (2.396693024574924+0.5703085249191097j), (-2.6043171789133117-1.9359912098794145j), (2.5406427668295217+3.6028477635607037j)),
    (0.501, 0.3, -math.pi / 4,
     (1.8510526950239659+1.3475864468766898j), (0.3126797840230394-3.3612046156562667j), (-4.14185096588968+1.8797632122567527j)),
    (0.501, 1.0, -0.3,
     (1.2367281826042316+0.12367428451504615j), (-0.16029324052402114-0.14277684016981038j), (0.8084936462244924-0.04383950267261514j)),
    (0.501, 1.0, -math.pi / 4,
     (1.0880443970598221+0.2750147216516993j), (0.07547850359926517-0.2220583424462575j), (0.8188918718991012-0.23779230306362076j)),
    (0.501, 2.5, -0.3,
     (1.0465145102119333+0.028652963031704066j), (-0.013773122226472742-0.014735123268660414j), (0.9548215714990973-0.025754606954256326j)),
    (0.501, 2.5, -math.pi / 4,
     (1.0065668309658817+0.057300130365141186j), (0.012080334711763174-0.018250499532831758j), (0.990056765984221-0.056798340941706216j)),
    (0.501, 4.0, -0.3,
     (1.0188825341296999+0.012246371006993639j), (-0.003547723564030262-0.004083447375842897j), (0.9813219695612058-0.01176647810715992j)),
    (0.501, 4.0, -math.pi / 4,
     (1.0012465095107324+0.023219123564582188j), (0.0036133244552722897-0.004433065947780388j), (0.9982108885976159-0.023180723185145385j)),
    (0.49999, 0.05, 0.0,
     12.84682720513825, -126.47557486983591, 1245.2157083779596),
    (0.49999, 0.5, 0.0,
     1.746638925352382, -1.0543249045721466, 1.2089510738317328),
    (0.49999, 2.0, 0.0,
     1.0809174180795378, -0.03619080330718328, 0.9263517799750538),
    (0.49999, 6.0, 0.0,
     1.0101717234660694, -0.001658165207717739, 0.9899334205086221),
    (0.49999, 10.0, 0.0,
     1.0037161518228308, -0.00036836980611813265, 0.9962977420262011),
    (0.49999, 12.49, 0.0,
     1.0023897165085, -0.00019023326798461553, 0.9976160167243858),
    (0.49999, 0.3, -0.3,
     (2.390976750153179+0.5674363067383378j), (-2.591994382405224-1.9249538112978526j), (2.5265763597570494+3.5739652306224765j)),
    (0.49999, 0.3, -math.pi / 4,
     (1.8487171504139397+1.3412915622656785j), (0.30698700032200127-3.344894892384522j), (-4.105123339787729+1.867505149791645j)),
    (0.49999, 1.0, -0.3,
     (1.2359909031050553+0.12323597502975735j), (-0.15976091073595844-0.14222349035372245j), (0.8089758758781449-0.04389305941426411j)),
    (0.49999, 1.0, -math.pi / 4,
     (1.087898100980368+0.27412404351550856j), (0.07506094047989599-0.2213557443582782j), (0.8196080544214407-0.23706688562815864j)),
    (0.49999, 2.5, -0.3,
     (1.046384572700786+0.0285682293379752j), (-0.013734132998916694-0.014689693753307751j), (0.9549443466232885-0.025686128585135467j)),
    (0.49999, 2.5, -math.pi / 4,
     (1.0065588086992565+0.05714089937508062j), (0.01204034106137651-0.018202419146056352j), (0.9900833520893085-0.05664108184366745j)),
    (0.49999, 4.0, -0.3,
     (1.0188309605636923+0.012211891605688467j), (-0.003538008243125191-0.004071689006546257j), (0.9813724509201489-0.011734628333530185j)),
    (0.49999, 4.0, -math.pi / 4,
     (1.0012451103890658+0.023156179910603987j), (0.003602737843163127-0.004421529531573301j), (0.998215218802346-0.023117926049728j)),
    (0.50001, 0.05, 0.0,
     12.84841936917272, -126.49648110552344, 1245.4730245242924),
    (0.50001, 0.5, 0.0,
     1.746694309034482, -1.0544162784190072, 1.209023054161276),
    (0.50001, 2.0, 0.0,
     1.0809220988400514, -0.036193024581130356, 0.9263479173039817),
    (0.50001, 6.0, 0.0,
     1.0101722736179979, -0.0016582560541536376, 0.989932881677267),
    (0.50001, 10.0, 0.0,
     1.0037163510925622, -0.0003683896619160332, 0.9962975442438753),
    (0.50001, 12.49, 0.0,
     1.0023898444106778, -0.00019024348451020134, 0.9976158894352133),
    (0.50001, 0.3, -0.3,
     (2.391089754894174+0.5674930543997183j), (-2.592237900846461-1.9251718058278586j), (2.5268540206256804+3.57453521672891j)),
    (0.50001, 0.3, -math.pi / 4,
     (1.8487633950110074+1.3414159668313779j), (0.30709923578577003-3.3452172086494776j), (-4.105848264394073+1.8677474532089748j)),
    (0.50001, 1.0, -0.3,
     (1.2360054896804031+0.12324464363768357j), (-0.15977144086133377-0.1422344316087845j), (0.8089663297148687-0.043892011254873076j)),
    (0.50001, 1.0, -math.pi / 4,
     (1.0879010025664826+0.27414166358472347j), (0.07506919123429004-0.2213696453304117j), (0.8195938942165857-0.2370812357866231j)),
    (0.50001, 2.5, -0.3,
     (1.0463871441854031+0.028569905973751704j), (-0.013734904578635871-0.014690592574350517j), (0.9549419167125407-0.025687483973603115j)),
    (0.50001, 2.5, -math.pi / 4,
     (1.0065589680109686+0.05714405064665999j), (0.0120411322141237-0.018203370841462674j), (0.9900828258765604-0.056644194079394125j)),
    (0.50001, 4.0, -0.3,
     (1.0188319812738391+0.0122125739438233j), (-0.0035382005214219074-0.004071921687745871j), (0.9813714517991314-0.01173525869852234j)),
    (0.50001, 4.0, -math.pi / 4,
     (1.0012451381847491+0.023157425677211088j), (0.0036029473294939334-0.004421757884384931j), (0.9982151330720094-0.02311916891548852j)),
    (0.4999999, 0.05, 0.0,
     12.847615299511988, -126.48592303065024, 1245.343073552593),
    (0.4999999, 0.5, 0.0,
     1.7466663398787337, -1.0543701337800446, 1.2089867027230619),
    (0.4999999, 2.0, 0.0,
     1.0809197350390929, -0.03619190282799247, 0.9263498679613774),
    (0.4999999, 6.0, 0.0,
     1.0101719957897954, -0.0016582101764436499, 0.989933153788474),
    (0.4999999, 10.0, 0.0,
     1.0037162504608355, -0.00036837963468565067, 0.9962976441244485),
    (0.4999999, 12.49, 0.0,
     1.0023897798197523, -0.00019023832513829686, 0.9976159537165655),
    (0.4999999, 0.3, -0.3,
     (2.391032686547627+0.567464396185606j), (-2.5921149215256123-1.9250617157277707j), (2.526713797441061+3.574247363942233j)),
    (0.4999999, 0.3, -math.pi / 4,
     (1.8487400414697295+1.3413531412819426j), (0.3070425543928083-3.3450544356645047j), (-4.10548216559884+1.8676250878080436j)),
    (0.4999999, 1.0, -0.3,
     (1.2359981233941446+0.12324026593624947j), (-0.15976612309221042-0.14222890619341755j), (0.8089711505421731-0.04389254063772968j)),
    (0.4999999, 1.0, -math.pi / 4,
     (1.087899537288846+0.274132765363354j), (0.07506502451342507-0.22136262527959893j), (0.8196010452291447-0.23707398888324135j)),
    (0.4999999, 2.5, -0.3,
     (1.0463858455779191+0.028569059266328387j), (-0.01373451492843301-0.014690138665820642j), (0.954943143823931-0.025686799499301347j)),
    (0.4999999, 2.5, -math.pi / 4,
     (1.0065588875608482+0.05714245924533594j), (0.012040732677944966-0.01820289023330479j), (0.9900830916152346-0.05664262239123445j)),
    (0.4999999, 4.0, -0.3,
     (1.0188314658124449+0.012212229360933122j), (-0.003538103420355415-0.004071804182943432j), (0.9813719563578199-0.011734940362567205j)),
    (0.4999999, 4.0, -math.pi / 4,
     (1.0012451241483846+0.023156796561830565j), (0.0036028415381418673-0.004421642565754995j), (0.9982151763659117-0.02311854126503815j)),
    (0.5000001, 0.05, 0.0,
     12.847631221152316, -126.48613209300683, 1245.3456467140518),
    (0.5000001, 0.5, 0.0,
     1.7466668937155545, -1.0543710475185128, 1.2089874225263566),
    (0.5000001, 2.0, 0.0,
     1.080919781846698, -0.03619192504073193, 0.9263498293346667),
    (0.5000001, 6.0, 0.0,
     1.0101720012913147, -0.0016582110849080085, 0.9899331484001604),
    (0.5000001, 10.0, 0.0,
     1.0037162524535328, -0.00036837983324362964, 0.9962976421466253),
    (0.5000001, 12.49, 0.0,
     1.002389781098774, -0.00019023842730355272, 0.9976159524436737),
    (0.5000001, 0.3, -0.3,
     (2.391033816595036+0.5674649636622194j), (-2.5921173567100233-1.9250638956730692j), (2.526716574049745+3.574253063803292j)),
    (0.5000001, 0.3, -math.pi / 4,
     (1.8487405039157+1.341354385327599j), (0.30704367674744465-3.3450576588271526j), (-4.105489414844897+1.8676275108422165j)),
    (0.5000001, 1.0, -0.3,
     (1.235998269259898+0.1232403526223287j), (-0.15976622839346413-0.14222901560596812j), (0.8089710550805402-0.0438925301561358j)),
    (0.5000001, 1.0, -math.pi / 4,
     (1.087899566304707+0.2741329415640461j), (0.07506510702096898-0.22136276428932025j), (0.8196009036270961-0.23707413238482594j)),
    (0.5000001, 2.5, -0.3,
     (1.0463858712927652+0.028569076032686148j), (-0.0137345226442302-0.014690147654031068j), (0.9549431195248236-0.02568681305318602j)),
    (0.5000001, 2.5, -math.pi / 4,
     (1.0065588891539654+0.05714249075805173j), (0.012040740589472436-0.01820289975025885j), (0.990083086353107-0.05664265351359171j)),
    (0.5000001, 4.0, -0.3,
     (1.0188314760195463+0.01221223618431447j), (-0.003538105343138381-0.004071806509755428j), (0.9813719463666097-0.011734946666217124j)),
    (0.5000001, 4.0, -math.pi / 4,
     (1.0012451244263414+0.023156809019496634j), (0.003602843633005175-0.004421644849283111j), (0.9982151755086084-0.02311855369369575j)),
    (1.499999, 0.05, 0.0,
     20397.19924035422, -611403.6582317665, 18326753.04561545),
    (1.499999, 0.5, 0.0,
     23.255129046543114, -63.470986557882746, 173.2764469535347),
    (1.499999, 2.0, 0.0,
     1.5886541316842917, -0.34460889872137546, 0.7042157702959891),
    (1.499999, 6.0, 0.0,
     1.0538979445359058, -0.009273279999714255, 0.9489400742330424),
    (1.499999, 10.0, 0.0,
     1.0189917518954563, -0.0019229462915367449, 0.9813658411486689),
    (1.499999, 12.49, 0.0,
     1.012119169330596, -0.0009782235573642778, 0.9880268917174224),
    (1.499999, 0.3, -0.3,
     (62.92571054488439+75.08561320334414j), (-176.45463658945704-443.4703067176009j), (139.12466734999995+2321.1263153917075j)),
    (1.499999, 0.3, -math.pi / 4,
     (-63.46316339279583+69.56790842837201j), (471.82240873348866-6.959830798338696j), (-1644.4552961049928-1699.1543034699268j)),
    (1.499999, 1.0, -0.3,
     (3.2794483474148364+2.304499143394227j), (-1.8015985435914559-3.889345293962278j), (-0.21095305278677803+4.4215420484141434j)),
    (1.499999, 1.0, -math.pi / 4,
     (-0.42600990330574046+2.521040388746267j), (3.913882263088517-0.5561004399174279j), (-2.7220262034583733-5.890273165237297j)),
    (1.499999, 2.5, -0.3,
     (1.2705743677563854+0.21721293357065485j), (-0.08132194874899666-0.13319223594496532j), (0.759019790723784-0.11270966473502313j)),
    (1.499999, 2.5, -math.pi / 4,
     (0.9438494270843011+0.31094698590921144j), (0.1222447825107065-0.06287193203973133j), (0.9614230097789317-0.3330225239018943j)),
    (1.499999, 4.0, -0.3,
     (1.1002831893511185+0.07428210789995161j), (-0.018763491016358963-0.02719129529235301j), (0.904445220384032-0.06013332825642744j)),
    (1.499999, 4.0, -math.pi / 4,
     (0.990703155874514+0.11811565641752629j), (0.024372295393682256-0.01796277666542367j), (0.9954035675010577-0.11955986338727165j)),
    (1.500001, 0.05, 0.0,
     20397.534657323795, -611414.5292545111, 18327103.39091354),
    (1.500001, 0.5, 0.0,
     23.255291269161567, -63.47153350742295, 173.27822383061454),
    (1.500001, 2.0, 0.0,
     1.588656035664521, -0.3446102612574393, 0.704215517423792),
    (1.500001, 6.0, 0.0,
     1.053898068101015, -0.009273302627885716, 0.9489399633720281),
    (1.500001, 10.0, 0.0,
     1.0189917935315815, -0.001922950617434019, 0.9813658010662715),
    (1.500001, 12.49, 0.0,
     1.0121191956458993, -0.0009782257179721085, 0.9880268660327004),
    (1.500001, 0.3, -0.3,
     (62.92619522497061+75.08638299581484j), (-176.45598309048773-443.47522819575136j), (139.12372851644574+2321.1544357598013j)),
    (1.500001, 0.3, -math.pi / 4,
     (-63.463978027049876+69.56834871177766j), (471.8274361894428-6.958428441919117j), (-1644.4697938641202-1699.1795427044433j)),
    (1.500001, 1.0, -0.3,
     (3.279457193724315+2.304512310486378j), (-1.801605239826179-3.889370476376306j), (-0.21096057351742228+4.421579804784828j)),
    (1.500001, 1.0, -math.pi / 4,
     (-0.42602246615404943+2.521047746368973j), (3.9139063243448846-0.5560923888066315j), (-2.7220408380747374-5.8903181986289175j)),
    (1.500001, 2.5, -0.3,
     (1.2705750513045415+0.21721364930734177j), (-0.08132214556621783-0.1331927330020774j), (0.759019211991636-0.11270982783814057j)),
    (1.500001, 2.5, -math.pi / 4,
     (0.9438490240581404+0.3109476673115759j), (0.12224521558903097-0.06287192261882098j), (0.9614230006032568-0.33302341242658917j)),
    (1.500001, 4.0, -0.3,
     (1.100283419407505+0.07428230626445537j), (-0.01876353295383558-0.027191374511242677j), (0.9044450090748123-0.060133459700482j)),
    (1.500001, 4.0, -math.pi / 4,
     (0.9907030922049906+0.1181159095682747j), (0.024372363458608243-0.017962800149429244j), (0.9954035716867671-0.11956012954558899j)),
]


@pytest.mark.parametrize("beta", sorted({row[0] for row in NEAR_INTEGER_NU_REFERENCE}))
def test_combos_match_mpmath_near_integer_nu(beta):
    # n^2 + j^2 and n'^2 + j'^2 against their own size, the cross term
    # against their geometric mean.  Measured: 2.1e-11 on real x (the
    # alternating series' e^x eps at 12.49), 7.0e-14 on complex z.
    rows = [row for row in NEAR_INTEGER_NU_REFERENCE if row[0] == beta]
    assert len(rows) == 14
    for _, r, angle, sum_sq, cross, sum_sq_deriv in rows:
        z = r if angle == 0.0 else r * cmath.exp(1j * angle)
        bound = 5.0e-11 if angle == 0.0 else 1.0e-12
        got = riccati_combos(BesselOrder(beta), z)
        assert abs(got.sum_sq - sum_sq) <= bound * abs(sum_sq)
        assert abs(got.sum_sq_deriv - sum_sq_deriv) <= bound * abs(sum_sq_deriv)
        assert abs(got.cross - cross) <= bound * math.sqrt(abs(sum_sq * sum_sq_deriv))


def _mpmath_combos(beta: float, x: float) -> tuple[float, float, float]:
    """(n^2 + j^2, n n' + j j', n'^2 + j'^2) from J and Y at 40 digits."""
    with mpmath.workdps(40):
        nu, x = mpmath.mpf(beta) + mpmath.mpf(0.5), mpmath.mpf(x)
        scale = mpmath.sqrt(mpmath.pi * x / 2)
        j, jp, n, np_ = (scale * v for f in (mpmath.besselj, mpmath.bessely)
                         for v in (f(nu, x), f(nu, x) / (2 * x) + f(nu, x, derivative=1)))
        return tuple(float(v) for v in (n * n + j * j, n * np_ + j * jp, np_ * np_ + jp * jp))


@pytest.mark.parametrize("beta", (9.0e-10, 1.0 - 9.0e-10, 1.0 + 9.0e-10, 2.0 + 5.0e-10))
def test_combos_match_mpmath_near_integer_beta(beta):
    # beta this close to an integer takes the series, not the closed forms
    # of the rounded order, which are 4.9e-9 to 1.6e-8 off here.  Near the
    # switch the series' alternating terms leave e^x eps (5.8e-11 at
    # 12.49), so the bound grows to 4 e^x eps there, as the x = 12 row of
    # REFERENCE_VALUES allows for.  Measured: at most half the bound,
    # 1.2e-10 at 12.49.
    order = BesselOrder(beta)
    for x in np.linspace(0.05, 12.49, 25):
        bound = max(5.0e-11, 4.0 * math.exp(x) * np.finfo(float).eps)
        sum_sq, cross, sum_sq_deriv = _mpmath_combos(beta, x)
        got = riccati_combos(order, x)
        assert abs(got.sum_sq - sum_sq) <= bound * abs(sum_sq)
        assert abs(got.sum_sq_deriv - sum_sq_deriv) <= bound * abs(sum_sq_deriv)
        assert abs(got.cross - cross) <= bound * math.sqrt(abs(sum_sq * sum_sq_deriv))


@pytest.mark.parametrize("beta", WRONSKIAN_BETAS)
def test_real_axis_evaluation_is_real(beta):
    x = np.linspace(0.3, 9.0, 30).astype(complex)
    pair = riccati_pair_with_derivatives(BesselOrder(beta), x)
    for comp in pair:
        assert np.max(np.abs(comp.imag)) < 1.0e-13
    real_pair = riccati_pair_with_derivatives(BesselOrder(beta), x.real)
    assert np.allclose(pair.j.real, real_pair.j, rtol=1.0e-13, atol=0.0)


def test_derivative_matches_finite_difference_example():
    order = BesselOrder(0.7)
    h = 1.0e-5
    pair = riccati_pair_with_derivatives(order, 0.5)
    j, _, n, _ = riccati_pair_with_derivatives(order, np.array([0.5 - h, 0.5 + h]))
    dj, dn = (j[1] - j[0]) / (2 * h), (n[1] - n[0]) / (2 * h)
    assert pair.jp == pytest.approx(dj, rel=1.0e-8)
    assert pair.np_ == pytest.approx(dn, rel=1.0e-8)


@pytest.mark.parametrize("beta", (-0.4, 0.3, 1.0))
def test_derivative_matches_finite_difference_sweep(beta):
    # step scaled to x so the O(h^2 f''') truncation stays below the
    # target even where the irregular solution steepens near the origin
    order = BesselOrder(beta)
    for x in (0.01, 0.1, 1.3, 4.0, 10.0):
        h = 1.0e-5 * x
        pair = riccati_pair_with_derivatives(order, x)
        j, _, n, _ = riccati_pair_with_derivatives(order, np.array([x - h, x + h]))
        dj, dn = (j[1] - j[0]) / (2 * h), (n[1] - n[0]) / (2 * h)
        scale = max(abs(pair.jp), abs(pair.np_))
        assert abs(pair.jp - dj) < 1.0e-8 * scale + 1.0e-10
        assert abs(pair.np_ - dn) < 1.0e-8 * scale + 1.0e-10


def test_small_argument_leading_terms():
    beta, x = 0.3, 1.0e-4
    nu = beta + 0.5
    j_lead = math.sqrt(math.pi / 2.0) / (2.0 ** nu * math.gamma(nu + 1.0)) \
        * x ** (beta + 1.0)
    n_lead = -math.sqrt(0.5 / math.pi) * math.gamma(nu) * 2.0 ** nu * x ** (-beta)
    order = BesselOrder(beta)
    # corrections are O(x^2) and, on the irregular branch, O(x^{2 nu})
    pair = riccati_pair_with_derivatives(order, x)
    assert pair.j == pytest.approx(j_lead, rel=1.0e-5)
    assert pair.n == pytest.approx(n_lead, rel=1.0e-5)


def test_scalar_and_array_paths_agree():
    order = BesselOrder(0.3)
    scalar = riccati_pair_with_derivatives(order, 2.0)
    array = riccati_pair_with_derivatives(order, np.array([2.0, 5.0]))
    assert np.isscalar(scalar.j) or np.ndim(scalar.j) == 0
    for s, a in zip(scalar, array):
        assert s == a[0]


def test_half_integer_order_continuity():
    # nu = beta + 1/2 integer: the series route's K factor takes its
    # mu = 0 limit 2 ln(x/2) / pi there; values must stay continuous.
    x = np.array([0.5, 2.0, 8.0])
    mid = riccati_pair_with_derivatives(BesselOrder(0.5), x)
    near = riccati_pair_with_derivatives(BesselOrder(0.5 + 1.0e-7), x)
    for m, n in zip(mid, near):
        assert np.allclose(m, n, rtol=2.0e-6)


def test_zero_argument_rejected():
    with pytest.raises(DomainError):
        riccati_pair_with_derivatives(BesselOrder(0.3), 0.0)


def test_series_term_cap_raises():
    # the term-ratio dry run refuses once eps times its peak term, the
    # alternating sum's loss to cancellation, passes the series' budget:
    # from x ~ 22.5 on, so at x = 400 long before the terms decay
    with pytest.raises(ConvergenceError):
        riccati_pair_with_derivatives(BesselOrder(0.3), 400.0)


def test_series_pair_refuses_where_it_would_cancel():
    # eps times the peak term is 3.6e12 at x = 50, where the summed n_hat
    # is 3.5e12 off
    with pytest.raises(ConvergenceError):
        riccati_pair_with_derivatives(BesselOrder(0.7), 50.0)


def test_only_specfun_names_the_combo_switch():
    # the series/Hankel split is specfun's decision: riccati_combos owns it
    offenders = []
    for path in sorted(Path(inspect.getfile(tailsurv.specfun)).parent.glob("*.py")):
        if path.name == "specfun.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None) \
                or getattr(node, "name", None)
            if name == "SERIES_COMBO_SWITCH":
                offenders.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert not offenders, offenders


def test_invalid_orders_rejected():
    with pytest.raises(DomainError):
        BesselOrder(-0.5)
    with pytest.raises(DomainError):
        BesselOrder(float("nan"))


# ------------------------------------------------------------------ #
# large-argument combination forms                                   #
# ------------------------------------------------------------------ #

def test_large_x_combos_zero_order_exact():
    combos = riccati_large_x_combos(BesselOrder(0.0), np.array([10.0, 25.0, 300.0]))
    assert np.all(combos.sum_sq == 1.0)
    assert np.all(combos.cross == 0.0)
    assert np.all(combos.sum_sq_deriv == 1.0)


def _combos_from_pair(order: BesselOrder, x):
    j, jp, n, np_ = riccati_pair_with_derivatives(order, x)
    return n * n + j * j, n * np_ + j * jp, np_ * np_ + jp * jp


def test_large_x_combos_match_series_at_20():
    order = BesselOrder(1.0)
    direct = _combos_from_pair(order, np.array([20.0]))
    asym = riccati_large_x_combos(order, np.array([20.0]))
    for d, a in zip(direct, asym):
        assert abs(d[0] - a[0]) < 1.0e-6


def test_large_x_combos_match_series_at_50():
    order = BesselOrder(0.7)
    direct = riccati_combos(order, np.array([50.0]))
    asym = riccati_large_x_combos(order, np.array([50.0]))
    for d, a in zip(direct, asym):
        assert abs(d[0] - a[0]) < 1.0e-8


@pytest.mark.parametrize("beta", (0.3, 0.7, 1.0))
def test_large_x_combos_truncation_bound(beta):
    # a loose O(z^-4) bound on the difference between the two routes.
    # The direct-series reference itself loses ~e^z eps absolute to
    # cancellation at non-integer order (and refuses from z ~ 22.5 on), so
    # the comparison range stops at z = 20 except for the integer order,
    # which uses closed trig forms.
    order = BesselOrder(beta)
    bound_scale = 1.0 + beta * (beta + 1.0)
    z_hi = 50.1 if order.is_integer_beta else 20.1
    for z in np.arange(10.0, z_hi, 2.0):
        direct = _combos_from_pair(order, np.array([z]))
        asym = riccati_large_x_combos(order, np.array([z]))
        for d, a in zip(direct, asym):
            assert abs(d[0] - a[0]) <= 1.5 * bound_scale / z ** 4


def test_large_x_combos_domain_cutoff():
    with pytest.raises(DomainError):
        riccati_large_x_combos(BesselOrder(0.3), 9.0)


# (beta, |z|, arg z, n^2 + j^2, n n' + j j') at z = |z| exp(i arg z),
# frozen from mpmath at 120 digits: (pi z / 2)(J^2 + Y^2) of order
# beta + 1/2 and its half-derivative.  (On the -pi/4 ray J^2 + Y^2
# cancels by up to e^{2 |Im z|} ~ 1e30, so 40 digits would not do.)
LARGE_X_REFERENCE = [
    (-0.4, 12.5, 0.0,
     0.9992399996810645+0j, 6.017945278499406e-05+0j),
    (-0.4, 12.5, -0.3,
     0.9993691848483226-0.00042620439489497177j, 3.806966429277516e-05+4.686401688856124e-05j),
    (-0.4, 12.5, -math.pi / 4,
     0.9999917609385164-0.0007677272985051573j, -4.246849991992179e-05+4.4328683054676134e-05j),
    (-0.4, 15.0, 0.0,
     0.9994705609189026+0j, 3.504193467556364e-05+0j),
    (-0.4, 15.0, -0.3,
     0.9995612819899488-0.0002975177975066354j, 2.2055787528621005e-05+2.733737075434359e-05j),
    (-0.4, 15.0, -math.pi / 4,
     0.9999960221164976-0.0005332416472733334j, -2.4754006981615153e-05+2.550327342720612e-05j),
    (-0.4, 20.0, 0.0,
     0.9997012440398656+0j, 1.4876373904502464e-05+0j),
    (-0.4, 20.0, -0.3,
     0.9997528593030642-0.00016823403148187897j, 9.31407088931003e-06+1.1626302151323693e-05j),
    (-0.4, 20.0, -math.pi / 4,
     0.9999987404372077-0.0002999836398398576j, -1.0515834135070162e-05+1.069390157385785e-05j),
    (-0.4, 50.0, 0.0,
     0.9999520321891928+0j, 9.587137627615573e-07+0j),
    (-0.4, 50.0, -0.3,
     0.9999603955937297-2.70728400142185e-05j, 5.966522898735086e-07+7.507102903439845e-07j),
    (-0.4, 50.0, -math.pi / 4,
     0.9999999677442875-4.799993290961393e-05j, -6.77907342398123e-07+6.797319847904444e-07j),
    (0.3, 12.5, 0.0,
     1.0012386270798517+0j, -9.836083344018698e-05+0j),
    (0.3, 12.5, -0.3,
     1.0010264705332639+0.0006959534652642683j, -6.192212463001319e-05-7.672526489501633e-05j),
    (0.3, 12.5, -math.pi / 4,
     1.0000096261254443+0.0012477134735111289j, 6.946211396240656e-05-7.163616252751864e-05j),
    (0.3, 15.0, 0.0,
     1.0008621081388034+0j, -5.7175894252689064e-05+0j),
    (0.3, 15.0, -0.3,
     1.0007135864555483+0.0004851130197877083j, -3.5862567816998495e-05-4.4656471026629946e-05j),
    (0.3, 15.0, -math.pi / 4,
     1.0000046467876236+0.0008665703625072293j, 4.0403770711128285e-05-4.127916939098456e-05j),
    (0.3, 20.0, 0.0,
     1.0004860451404316+0j, -2.4230333007946942e-05+0j),
    (0.3, 20.0, -0.3,
     1.0004018142481848+0.00027390803732773385j, -1.5140105014145765e-05-1.8948987196120035e-05j),
    (0.3, 20.0, -math.pi / 4,
     1.0000014712050957+0.00048748281935015133j, 1.7129907650190726e-05-1.733790605752646e-05j),
    (0.3, 50.0, 0.0,
     1.0000779623961662+0j, -1.5584972443203025e-06+0j),
    (0.3, 50.0, -0.3,
     1.0000643625106995+4.400706769915001e-05j, -9.696028388802183e-07-1.2204904329615628e-06j),
    (0.3, 50.0, -math.pi / 4,
     1.0000000376737137+7.799992955164065e-05j, 1.102018024394728e-06-1.1041491552800721e-06j),
    (0.499, 12.5, 0.0,
     1.0023795985695412+0j, -0.00018927624231680122+0j),
    (0.499, 12.5, -0.3,
     1.0019702383693674+0.001338498806620929j, -0.00011882576897586679-0.00014778207113306973j),
    (0.499, 12.5, -math.pi / 4,
     1.0000143596480477+0.0023932029882187985j, 0.00013371318694941123-0.00013695685706037523j),
    (0.499, 15.0, 0.0,
     1.0016554168744989+0j, -0.000109915574465621+0j),
    (0.499, 15.0, -0.3,
     1.0013693526440481+0.0009322244583583168j, -6.880592220500912e-05-8.590433524428717e-05j),
    (0.499, 15.0, -math.pi / 4,
     1.0000069311588287+0.0016620899527816204j, 7.768610413325316e-05-7.899196197481299e-05j),
    (0.499, 20.0, 0.0,
     1.0009328297852393+0j, -4.653406124528016e-05+0j),
    (0.499, 20.0, -0.3,
     1.0007708894431298+0.000525918665985934j, -2.9043060925773977e-05-3.64046988385897e-05j),
    (0.499, 20.0, -math.pi / 4,
     1.0000021943242532+0.0009349772594354517j, 3.2899622823469174e-05-3.320986401468035e-05j),
    (0.499, 50.0, 0.0,
     1.0001495441081947+0j, -2.9897622798380237e-06+0j),
    (0.499, 50.0, -0.3,
     1.0001234499901848+8.441835140335019e-05j, -1.8596975712312651e-06-2.3414803670774654e-06j),
    (0.499, 50.0, -math.pi / 4,
     1.000000056189403+0.0001496001016331105j, 2.1140728791031845e-06-2.1172514098158438e-06j),
    (0.7, 12.5, 0.0,
     1.0037935534624858+0j, -0.00030235575306064756+0j),
    (0.7, 12.5, -0.3,
     1.0031374416560979+0.002136714051068448j, -0.00018915947289879564-0.00023634524510703786j),
    (0.7, 12.5, -math.pi / 4,
     1.0000147829047124+0.003807622589584953j, 0.00021367924374585492-0.00021701920306652105j),
    (0.7, 15.0, 0.0,
     1.0026374266566094+0j, -0.00017536842811308396+0j),
    (0.7, 15.0, -0.3,
     1.0021799416309123+0.0014866312243728699j, -0.00010950851972852829-0.00013716935691857578j),
    (0.7, 15.0, -math.pi / 4,
     1.000007134698319+0.0026443176415091346j, 0.00012397024041018646-0.00012531458064058147j),
    (0.7, 20.0, 0.0,
     1.0014852629838042+0j, -7.415237990122805e-05+0j),
    (0.7, 20.0, -0.3,
     1.0012268633401364+0.0008378217603905236j, -4.621463803536508e-05-5.8037475634816235e-05j),
    (0.7, 20.0, -math.pi / 4,
     1.000002258606774+0.001487477384045967j, 5.24289996782312e-05-5.2748339620163735e-05j),
    (0.7, 50.0, 0.0,
     1.0002379422583787+0j, -4.757692175798747e-06+0j),
    (0.7, 50.0, -0.3,
     1.0001964088989388+0.00013433109518503624j, -2.958697024720043e-06-3.726333315372248e-06j),
    (0.7, 50.0, -math.pi / 4,
     1.0000000578336492+0.00023799990727519534j, 3.3641885718355223e-06-3.3674601172341775e-06j),
    (1.5, 12.5, 0.0,
     1.0120996417167192+0j, -0.0009758537962291558+0j),
    (1.5, 12.5, -0.3,
     1.009940791198898+0.006868518024022994j, -0.0005980186234487498-0.0007678386204089095j),
    (1.5, 12.5, -math.pi / 4,
     0.9998992551265502+0.012001204533872495j, 0.000690418195220238-0.0006676345445187417j),
    (1.5, 15.0, 0.0,
     1.008381551582312+0j, -0.0005619592334672828+0j),
    (1.5, 15.0, -0.3,
     1.0068954946203896+0.0047502755315968976j, -0.00034583537525153586-0.00044157843181675594j),
    (1.5, 15.0, -math.pi / 4,
     0.9999514017981019+0.008333737594623669j, 0.00039747486799687445-0.0003883135213425647j),
    (1.5, 20.0, 0.0,
     1.004702810017798+0j, -0.00023590252038564047+0j),
    (1.5, 20.0, -0.3,
     1.0038743495345237+0.0026610278149879034j, -0.00014580387182921178-0.0001851172547123526j),
    (1.5, 20.0, -math.pi / 4,
     0.999984620438933+0.004687572050454739j, 0.00016682319820253387-0.0001646483830302509j),
    (1.5, 50.0, 0.0,
     1.0007503934555353+0j, -1.5015732348974017e-05+0j),
    (1.5, 50.0, -0.3,
     1.0006191444560197+0.00042384855842225055j, -9.325272519043323e-06-1.1765598924689774e-05j),
    (1.5, 50.0, -math.pi / 4,
     0.9999996062508527+0.0007500002953075124j, 1.0617751130064751e-05-1.0595477362922909e-05j),
]


def _check_large_x_rows(combos, radius: float, bound: float) -> None:
    # Both errors are taken relative to n^2 + j^2 ~ 1, the scale at which
    # the cross term enters C^2; against its own size (~1e-4 at |z| = 12.5)
    # the cross term carries up to 5e-8 there.
    rows = [row for row in LARGE_X_REFERENCE if row[1] == radius]
    assert len(rows) == 15
    for beta, r, angle, sum_sq, cross in rows:
        got = combos(BesselOrder(beta), r * cmath.exp(1j * angle))
        assert abs(got.sum_sq - sum_sq) <= bound * abs(sum_sq)
        assert abs(got.cross - cross) <= bound * abs(sum_sq)


@pytest.mark.parametrize("radius,bound", ((12.5, 1.0e-11), (15.0, 1.0e-13),
                                          (20.0, 1.0e-13), (50.0, 1.0e-13)))
def test_large_x_combos_match_mpmath(radius, bound):
    # Measured: 4.0e-12, 4.1e-14, 2.4e-17 and 4.1e-20 from |z| = 12.5 up.
    _check_large_x_rows(riccati_large_x_combos, radius, bound)


@pytest.mark.parametrize("radius,bound", (
    pytest.param(12.5, 1.0e-11, marks=pytest.mark.xfail(
        strict=True, reason="12.5 exp(-0.3i) rounds to |z| = 12.5 - 2e-15, "
                            "where riccati_combos takes the ascending series; "
                            "off the real axis that series carries up to 6.5e-10 "
                            "there (1e-7 at |z| = 12.49 on the -pi/4 ray), "
                            "because the switch radius is set on the real axis")),
    (15.0, 1.0e-13), (20.0, 1.0e-13), (50.0, 1.0e-13)))
def test_combos_match_mpmath_at_large_z(radius, bound):
    # the entry valid at every |z| against the same rows and bounds
    _check_large_x_rows(riccati_combos, radius, bound)


_RAY_ARGUMENT = st.builds(lambda r, angle: r * cmath.exp(1j * angle) if angle else r,
                          st.floats(0.05, 200.0, exclude_min=True),
                          st.sampled_from((0.0, -0.3, -math.pi / 4)))


@given(beta=_GENERIC_BETA, z=_RAY_ARGUMENT)
def test_combos_take_the_pair_below_the_switch_and_hankel_from_it(beta, z):
    order = BesselOrder(beta)
    arg = np.array([z])
    if np.abs(arg)[0] < 12.5:
        want = _combos_from_pair(order, arg)
    else:
        want = riccati_large_x_combos(order, arg)
    for got, ref in zip(riccati_combos(order, arg), want):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("beta", [0.3, 1.0])
def test_riccati_calls_leave_their_input_unchanged(beta):
    # validation converts without copying where the dtype already fits,
    # so no kernel may write into the array it was given
    order = BesselOrder(beta)
    x = np.array([0.5, 3.0, 11.0, 13.0, 20.0])
    z = x * np.exp(-0.3j)
    for arg in (x, z, x[:3], z[3:]):
        keep = arg.copy()
        riccati_combos(order, arg)
        assert np.array_equal(arg, keep)
    for arg in (x[:4], z[:4]):
        keep = arg.copy()
        riccati_pair_with_derivatives(order, arg)
        assert np.array_equal(arg, keep)


def test_per_order_caches_stay_bounded_and_values_bit_identical():
    # a sweep over many tail strengths: each order's coefficients are
    # cached, but only the last _ORDER_CACHE_SIZE entries are kept, and an
    # order evicted and built again gives the same bits
    x = np.array([0.5, 3.0, 11.0, 13.0, 20.0])
    order = BesselOrder(0.3)
    first = riccati_combos(order, x), riccati_pair_with_derivatives(order, x[:4])
    for beta in np.linspace(-0.45, 1.45, 300):
        riccati_combos(BesselOrder(float(beta)), x)
    for cached in (tailsurv.specfun._series_tables, tailsurv.specfun._large_x_coefficients):
        assert cached.cache_info().currsize <= tailsurv.specfun._ORDER_CACHE_SIZE
    again = riccati_combos(order, x), riccati_pair_with_derivatives(order, x[:4])
    for got, want in zip(itertools.chain(*again), itertools.chain(*first)):
        assert np.array_equal(got, want)
