/* Generated shared-memory implementation of 'satrec'.
 * Schedule: (24(11(4A)B)C G(11(4D)E)F H K L I M(10N S J T U P))Q R V(240W)
 * Pool size: 262 words.
 */

#include <stddef.h>
#include <stdio.h>
#include <stdlib.h>

typedef long token_t;

#define TOKEN(e, s) ((token_t)(e) * 1000003L + (s))
static long fired = 0;

static token_t memory[262];

#define BUF_A_B (memory + 251)  /* 4 words, lifetime A->B: size=4 start=0 dur=2 periods=(2x11, 112x24) */
#define BUF_B_C (memory + 240)  /* 11 words, lifetime B->C: size=11 start=1 dur=22 periods=(112x24) */
#define BUF_C_G (memory + 251)  /* 1 words, lifetime C->G: size=1 start=22 dur=2 periods=(112x24) */
#define BUF_G_H (memory + 240)  /* 1 words, lifetime G->H: size=1 start=23 dur=25 periods=(112x24) */
#define BUF_H_I (memory + 250)  /* 1 words, lifetime H->I: size=1 start=47 dur=4 periods=(112x24) */
#define BUF_D_E (memory + 252)  /* 4 words, lifetime D->E: size=4 start=24 dur=2 periods=(2x11, 112x24) */
#define BUF_E_F (memory + 241)  /* 11 words, lifetime E->F: size=11 start=25 dur=22 periods=(112x24) */
#define BUF_F_K (memory + 252)  /* 1 words, lifetime F->K: size=1 start=46 dur=3 periods=(112x24) */
#define BUF_K_L (memory + 240)  /* 1 words, lifetime K->L: size=1 start=48 dur=2 periods=(112x24) */
#define BUF_L_M (memory + 260)  /* 1 words, lifetime L->M: size=1 start=49 dur=3 periods=(112x24) */
#define BUF_I_N (memory + 240)  /* 10 words, lifetime I->N: size=10 start=50 dur=57 periods=(112x24) */
#define BUF_M_N (memory + 250)  /* 10 words, lifetime M->N: size=10 start=51 dur=56 periods=(112x24) */
#define BUF_N_S (memory + 260)  /* 1 words, lifetime N->S: size=1 start=52 dur=2 periods=(6x10, 112x24) */
#define BUF_S_J (memory + 261)  /* 1 words, lifetime S->J: size=1 start=53 dur=2 periods=(6x10, 112x24) */
#define BUF_J_T (memory + 260)  /* 1 words, lifetime J->T: size=1 start=54 dur=2 periods=(6x10, 112x24) */
#define BUF_T_U (memory + 261)  /* 1 words, lifetime T->U: size=1 start=55 dur=2 periods=(6x10, 112x24) */
#define BUF_U_P (memory + 260)  /* 1 words, lifetime U->P: size=1 start=56 dur=2 periods=(6x10, 112x24) */
#define BUF_P_Q (memory + 0)  /* 240 words, lifetime P->Q: size=240 [57, 2689) */
#define BUF_Q_R (memory + 240)  /* 1 words, lifetime Q->R: size=1 [2688, 2690) */
#define BUF_R_V (memory + 241)  /* 1 words, lifetime R->V: size=1 [2689, 2691) */
#define BUF_V_W (memory + 0)  /* 240 words, lifetime V->W: size=240 [2690, 2692) */

static size_t wr_A_B = 0;
static size_t rd_A_B = 0;
static size_t wr_B_C = 0;
static size_t rd_B_C = 0;
static size_t wr_C_G = 0;
static size_t rd_C_G = 0;
static size_t wr_G_H = 0;
static size_t rd_G_H = 0;
static size_t wr_H_I = 0;
static size_t rd_H_I = 0;
static size_t wr_D_E = 0;
static size_t rd_D_E = 0;
static size_t wr_E_F = 0;
static size_t rd_E_F = 0;
static size_t wr_F_K = 0;
static size_t rd_F_K = 0;
static size_t wr_K_L = 0;
static size_t rd_K_L = 0;
static size_t wr_L_M = 0;
static size_t rd_L_M = 0;
static size_t wr_I_N = 0;
static size_t rd_I_N = 0;
static size_t wr_M_N = 0;
static size_t rd_M_N = 0;
static size_t wr_N_S = 0;
static size_t rd_N_S = 0;
static size_t wr_S_J = 0;
static size_t rd_S_J = 0;
static size_t wr_J_T = 0;
static size_t rd_J_T = 0;
static size_t wr_T_U = 0;
static size_t rd_T_U = 0;
static size_t wr_U_P = 0;
static size_t rd_U_P = 0;
static size_t wr_P_Q = 0;
static size_t rd_P_Q = 0;
static size_t wr_Q_R = 0;
static size_t rd_Q_R = 0;
static size_t wr_R_V = 0;
static size_t rd_R_V = 0;
static size_t wr_V_W = 0;
static size_t rd_V_W = 0;
static long produced_A_B = 0;
static long consumed_A_B = 0;
static long produced_B_C = 0;
static long consumed_B_C = 0;
static long produced_C_G = 0;
static long consumed_C_G = 0;
static long produced_G_H = 0;
static long consumed_G_H = 0;
static long produced_H_I = 0;
static long consumed_H_I = 0;
static long produced_D_E = 0;
static long consumed_D_E = 0;
static long produced_E_F = 0;
static long consumed_E_F = 0;
static long produced_F_K = 0;
static long consumed_F_K = 0;
static long produced_K_L = 0;
static long consumed_K_L = 0;
static long produced_L_M = 0;
static long consumed_L_M = 0;
static long produced_I_N = 0;
static long consumed_I_N = 0;
static long produced_M_N = 0;
static long consumed_M_N = 0;
static long produced_N_S = 0;
static long consumed_N_S = 0;
static long produced_S_J = 0;
static long consumed_S_J = 0;
static long produced_J_T = 0;
static long consumed_J_T = 0;
static long produced_T_U = 0;
static long consumed_T_U = 0;
static long produced_U_P = 0;
static long consumed_U_P = 0;
static long produced_P_Q = 0;
static long consumed_P_Q = 0;
static long produced_Q_R = 0;
static long consumed_Q_R = 0;
static long produced_R_V = 0;
static long consumed_R_V = 0;
static long produced_V_W = 0;
static long consumed_V_W = 0;

static void fire_A(void)
{
    fired++;
    for (int w = 0; w < 1; ++w) {
        BUF_A_B[wr_A_B++] = TOKEN(0, produced_A_B++);
    }
}

static void fire_B(void)
{
    fired++;
    for (int w = 0; w < 4; ++w) {
        if (BUF_A_B[rd_A_B] != TOKEN(0, consumed_A_B++)) {
            fprintf(stderr, "SELFCHECK FAIL: B reading A->B word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_A_B++;
    }
    for (int w = 0; w < 1; ++w) {
        BUF_B_C[wr_B_C++] = TOKEN(1, produced_B_C++);
    }
}

static void fire_C(void)
{
    fired++;
    for (int w = 0; w < 11; ++w) {
        if (BUF_B_C[rd_B_C] != TOKEN(1, consumed_B_C++)) {
            fprintf(stderr, "SELFCHECK FAIL: C reading B->C word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_B_C++;
    }
    for (int w = 0; w < 1; ++w) {
        BUF_C_G[wr_C_G++] = TOKEN(2, produced_C_G++);
    }
}

static void fire_G(void)
{
    fired++;
    for (int w = 0; w < 1; ++w) {
        if (BUF_C_G[rd_C_G] != TOKEN(2, consumed_C_G++)) {
            fprintf(stderr, "SELFCHECK FAIL: G reading C->G word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_C_G++;
    }
    for (int w = 0; w < 1; ++w) {
        BUF_G_H[wr_G_H++] = TOKEN(3, produced_G_H++);
    }
}

static void fire_H(void)
{
    fired++;
    for (int w = 0; w < 1; ++w) {
        if (BUF_G_H[rd_G_H] != TOKEN(3, consumed_G_H++)) {
            fprintf(stderr, "SELFCHECK FAIL: H reading G->H word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_G_H++;
    }
    for (int w = 0; w < 1; ++w) {
        BUF_H_I[wr_H_I++] = TOKEN(4, produced_H_I++);
    }
}

static void fire_I(void)
{
    fired++;
    for (int w = 0; w < 1; ++w) {
        if (BUF_H_I[rd_H_I] != TOKEN(4, consumed_H_I++)) {
            fprintf(stderr, "SELFCHECK FAIL: I reading H->I word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_H_I++;
    }
    for (int w = 0; w < 10; ++w) {
        BUF_I_N[wr_I_N++] = TOKEN(10, produced_I_N++);
    }
}

static void fire_D(void)
{
    fired++;
    for (int w = 0; w < 1; ++w) {
        BUF_D_E[wr_D_E++] = TOKEN(5, produced_D_E++);
    }
}

static void fire_E(void)
{
    fired++;
    for (int w = 0; w < 4; ++w) {
        if (BUF_D_E[rd_D_E] != TOKEN(5, consumed_D_E++)) {
            fprintf(stderr, "SELFCHECK FAIL: E reading D->E word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_D_E++;
    }
    for (int w = 0; w < 1; ++w) {
        BUF_E_F[wr_E_F++] = TOKEN(6, produced_E_F++);
    }
}

static void fire_F(void)
{
    fired++;
    for (int w = 0; w < 11; ++w) {
        if (BUF_E_F[rd_E_F] != TOKEN(6, consumed_E_F++)) {
            fprintf(stderr, "SELFCHECK FAIL: F reading E->F word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_E_F++;
    }
    for (int w = 0; w < 1; ++w) {
        BUF_F_K[wr_F_K++] = TOKEN(7, produced_F_K++);
    }
}

static void fire_K(void)
{
    fired++;
    for (int w = 0; w < 1; ++w) {
        if (BUF_F_K[rd_F_K] != TOKEN(7, consumed_F_K++)) {
            fprintf(stderr, "SELFCHECK FAIL: K reading F->K word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_F_K++;
    }
    for (int w = 0; w < 1; ++w) {
        BUF_K_L[wr_K_L++] = TOKEN(8, produced_K_L++);
    }
}

static void fire_L(void)
{
    fired++;
    for (int w = 0; w < 1; ++w) {
        if (BUF_K_L[rd_K_L] != TOKEN(8, consumed_K_L++)) {
            fprintf(stderr, "SELFCHECK FAIL: L reading K->L word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_K_L++;
    }
    for (int w = 0; w < 1; ++w) {
        BUF_L_M[wr_L_M++] = TOKEN(9, produced_L_M++);
    }
}

static void fire_M(void)
{
    fired++;
    for (int w = 0; w < 1; ++w) {
        if (BUF_L_M[rd_L_M] != TOKEN(9, consumed_L_M++)) {
            fprintf(stderr, "SELFCHECK FAIL: M reading L->M word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_L_M++;
    }
    for (int w = 0; w < 10; ++w) {
        BUF_M_N[wr_M_N++] = TOKEN(11, produced_M_N++);
    }
}

static void fire_N(void)
{
    fired++;
    for (int w = 0; w < 1; ++w) {
        if (BUF_I_N[rd_I_N] != TOKEN(10, consumed_I_N++)) {
            fprintf(stderr, "SELFCHECK FAIL: N reading I->N word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_I_N++;
    }
    for (int w = 0; w < 1; ++w) {
        if (BUF_M_N[rd_M_N] != TOKEN(11, consumed_M_N++)) {
            fprintf(stderr, "SELFCHECK FAIL: N reading M->N word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_M_N++;
    }
    for (int w = 0; w < 1; ++w) {
        BUF_N_S[wr_N_S++] = TOKEN(12, produced_N_S++);
    }
}

static void fire_S(void)
{
    fired++;
    for (int w = 0; w < 1; ++w) {
        if (BUF_N_S[rd_N_S] != TOKEN(12, consumed_N_S++)) {
            fprintf(stderr, "SELFCHECK FAIL: S reading N->S word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_N_S++;
    }
    for (int w = 0; w < 1; ++w) {
        BUF_S_J[wr_S_J++] = TOKEN(13, produced_S_J++);
    }
}

static void fire_J(void)
{
    fired++;
    for (int w = 0; w < 1; ++w) {
        if (BUF_S_J[rd_S_J] != TOKEN(13, consumed_S_J++)) {
            fprintf(stderr, "SELFCHECK FAIL: J reading S->J word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_S_J++;
    }
    for (int w = 0; w < 1; ++w) {
        BUF_J_T[wr_J_T++] = TOKEN(14, produced_J_T++);
    }
}

static void fire_T(void)
{
    fired++;
    for (int w = 0; w < 1; ++w) {
        if (BUF_J_T[rd_J_T] != TOKEN(14, consumed_J_T++)) {
            fprintf(stderr, "SELFCHECK FAIL: T reading J->T word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_J_T++;
    }
    for (int w = 0; w < 1; ++w) {
        BUF_T_U[wr_T_U++] = TOKEN(15, produced_T_U++);
    }
}

static void fire_U(void)
{
    fired++;
    for (int w = 0; w < 1; ++w) {
        if (BUF_T_U[rd_T_U] != TOKEN(15, consumed_T_U++)) {
            fprintf(stderr, "SELFCHECK FAIL: U reading T->U word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_T_U++;
    }
    for (int w = 0; w < 1; ++w) {
        BUF_U_P[wr_U_P++] = TOKEN(16, produced_U_P++);
    }
}

static void fire_P(void)
{
    fired++;
    for (int w = 0; w < 1; ++w) {
        if (BUF_U_P[rd_U_P] != TOKEN(16, consumed_U_P++)) {
            fprintf(stderr, "SELFCHECK FAIL: P reading U->P word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_U_P++;
    }
    for (int w = 0; w < 1; ++w) {
        BUF_P_Q[wr_P_Q++] = TOKEN(17, produced_P_Q++);
    }
}

static void fire_Q(void)
{
    fired++;
    for (int w = 0; w < 240; ++w) {
        if (BUF_P_Q[rd_P_Q] != TOKEN(17, consumed_P_Q++)) {
            fprintf(stderr, "SELFCHECK FAIL: Q reading P->Q word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_P_Q++;
    }
    for (int w = 0; w < 1; ++w) {
        BUF_Q_R[wr_Q_R++] = TOKEN(18, produced_Q_R++);
    }
}

static void fire_R(void)
{
    fired++;
    for (int w = 0; w < 1; ++w) {
        if (BUF_Q_R[rd_Q_R] != TOKEN(18, consumed_Q_R++)) {
            fprintf(stderr, "SELFCHECK FAIL: R reading Q->R word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_Q_R++;
    }
    for (int w = 0; w < 1; ++w) {
        BUF_R_V[wr_R_V++] = TOKEN(19, produced_R_V++);
    }
}

static void fire_V(void)
{
    fired++;
    for (int w = 0; w < 1; ++w) {
        if (BUF_R_V[rd_R_V] != TOKEN(19, consumed_R_V++)) {
            fprintf(stderr, "SELFCHECK FAIL: V reading R->V word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_R_V++;
    }
    for (int w = 0; w < 240; ++w) {
        BUF_V_W[wr_V_W++] = TOKEN(20, produced_V_W++);
    }
}

static void fire_W(void)
{
    fired++;
    for (int w = 0; w < 1; ++w) {
        if (BUF_V_W[rd_V_W] != TOKEN(20, consumed_V_W++)) {
            fprintf(stderr, "SELFCHECK FAIL: W reading V->W word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_V_W++;
    }
}


void run_one_period(void)
{
    {
        wr_P_Q = 0;
        rd_P_Q = 0;
        for (int i2 = 0; i2 < 24; ++i2) {
            wr_B_C = 0;
            rd_B_C = 0;
            for (int i3 = 0; i3 < 11; ++i3) {
                wr_A_B = 0;
                rd_A_B = 0;
                for (int r = 0; r < 4; ++r) {
                    fire_A();
                }
                {
                    fire_B();
                }
            }
            {
                wr_C_G = 0;
                rd_C_G = 0;
                {
                    fire_C();
                }
                {
                    wr_G_H = 0;
                    rd_G_H = 0;
                    {
                        fire_G();
                    }
                    {
                        wr_E_F = 0;
                        rd_E_F = 0;
                        for (int i6 = 0; i6 < 11; ++i6) {
                            wr_D_E = 0;
                            rd_D_E = 0;
                            for (int r = 0; r < 4; ++r) {
                                fire_D();
                            }
                            {
                                fire_E();
                            }
                        }
                        {
                            wr_F_K = 0;
                            rd_F_K = 0;
                            {
                                fire_F();
                            }
                            {
                                wr_H_I = 0;
                                rd_H_I = 0;
                                {
                                    fire_H();
                                }
                                {
                                    wr_K_L = 0;
                                    rd_K_L = 0;
                                    {
                                        fire_K();
                                    }
                                    {
                                        wr_L_M = 0;
                                        rd_L_M = 0;
                                        {
                                            fire_L();
                                        }
                                        {
                                            wr_I_N = 0;
                                            rd_I_N = 0;
                                            {
                                                fire_I();
                                            }
                                            {
                                                wr_M_N = 0;
                                                rd_M_N = 0;
                                                {
                                                    fire_M();
                                                }
                                                for (int i12 = 0; i12 < 10; ++i12) {
                                                    wr_N_S = 0;
                                                    rd_N_S = 0;
                                                    {
                                                        fire_N();
                                                    }
                                                    {
                                                        wr_S_J = 0;
                                                        rd_S_J = 0;
                                                        {
                                                            fire_S();
                                                        }
                                                        {
                                                            wr_J_T = 0;
                                                            rd_J_T = 0;
                                                            {
                                                                fire_J();
                                                            }
                                                            {
                                                                wr_T_U = 0;
                                                                rd_T_U = 0;
                                                                {
                                                                    fire_T();
                                                                }
                                                                {
                                                                    wr_U_P = 0;
                                                                    rd_U_P = 0;
                                                                    {
                                                                        fire_U();
                                                                    }
                                                                    {
                                                                        fire_P();
                                                                    }
                                                                }
                                                            }
                                                        }
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        {
            wr_Q_R = 0;
            rd_Q_R = 0;
            {
                fire_Q();
            }
            {
                wr_R_V = 0;
                rd_R_V = 0;
                {
                    fire_R();
                }
                {
                    wr_V_W = 0;
                    rd_V_W = 0;
                    {
                        fire_V();
                    }
                    for (int r = 0; r < 240; ++r) {
                        fire_W();
                    }
                }
            }
        }
    }
}

void init_delays(void)
{
}

int main(void)
{
    init_delays();
    for (int p = 0; p < 2; ++p) {
        run_one_period();
    }
    printf("SELFCHECK OK %ld firings\n", fired);
    return 0;
}
