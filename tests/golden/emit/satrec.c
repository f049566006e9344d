/* Generated shared-memory implementation of 'satrec'.
 * Schedule: (24(11(4A)B)C G(11(4D)E)F H K L I M(10N S J T U P))Q R V(240W)
 * Pool size: 262 words.
 */

#include <stddef.h>

typedef int token_t;

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

#define fire_A(p0) /* actor code block */
#define fire_B(p0, p1) /* actor code block */
#define fire_C(p0, p1) /* actor code block */
#define fire_G(p0, p1) /* actor code block */
#define fire_H(p0, p1) /* actor code block */
#define fire_I(p0, p1) /* actor code block */
#define fire_D(p0) /* actor code block */
#define fire_E(p0, p1) /* actor code block */
#define fire_F(p0, p1) /* actor code block */
#define fire_K(p0, p1) /* actor code block */
#define fire_L(p0, p1) /* actor code block */
#define fire_M(p0, p1) /* actor code block */
#define fire_N(p0, p1, p2) /* actor code block */
#define fire_S(p0, p1) /* actor code block */
#define fire_J(p0, p1) /* actor code block */
#define fire_T(p0, p1) /* actor code block */
#define fire_U(p0, p1) /* actor code block */
#define fire_P(p0, p1) /* actor code block */
#define fire_Q(p0, p1) /* actor code block */
#define fire_R(p0, p1) /* actor code block */
#define fire_V(p0, p1) /* actor code block */
#define fire_W(p0) /* actor code block */

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
                    fire_A(BUF_A_B + wr_A_B);
                    wr_A_B += 1;
                }
                {
                    fire_B(BUF_A_B + rd_A_B, BUF_B_C + wr_B_C);
                    rd_A_B += 4;
                    wr_B_C += 1;
                }
            }
            {
                wr_C_G = 0;
                rd_C_G = 0;
                {
                    fire_C(BUF_B_C + rd_B_C, BUF_C_G + wr_C_G);
                    rd_B_C += 11;
                    wr_C_G += 1;
                }
                {
                    wr_G_H = 0;
                    rd_G_H = 0;
                    {
                        fire_G(BUF_C_G + rd_C_G, BUF_G_H + wr_G_H);
                        rd_C_G += 1;
                        wr_G_H += 1;
                    }
                    {
                        wr_E_F = 0;
                        rd_E_F = 0;
                        for (int i6 = 0; i6 < 11; ++i6) {
                            wr_D_E = 0;
                            rd_D_E = 0;
                            for (int r = 0; r < 4; ++r) {
                                fire_D(BUF_D_E + wr_D_E);
                                wr_D_E += 1;
                            }
                            {
                                fire_E(BUF_D_E + rd_D_E, BUF_E_F + wr_E_F);
                                rd_D_E += 4;
                                wr_E_F += 1;
                            }
                        }
                        {
                            wr_F_K = 0;
                            rd_F_K = 0;
                            {
                                fire_F(BUF_E_F + rd_E_F, BUF_F_K + wr_F_K);
                                rd_E_F += 11;
                                wr_F_K += 1;
                            }
                            {
                                wr_H_I = 0;
                                rd_H_I = 0;
                                {
                                    fire_H(BUF_G_H + rd_G_H, BUF_H_I + wr_H_I);
                                    rd_G_H += 1;
                                    wr_H_I += 1;
                                }
                                {
                                    wr_K_L = 0;
                                    rd_K_L = 0;
                                    {
                                        fire_K(BUF_F_K + rd_F_K, BUF_K_L + wr_K_L);
                                        rd_F_K += 1;
                                        wr_K_L += 1;
                                    }
                                    {
                                        wr_L_M = 0;
                                        rd_L_M = 0;
                                        {
                                            fire_L(BUF_K_L + rd_K_L, BUF_L_M + wr_L_M);
                                            rd_K_L += 1;
                                            wr_L_M += 1;
                                        }
                                        {
                                            wr_I_N = 0;
                                            rd_I_N = 0;
                                            {
                                                fire_I(BUF_H_I + rd_H_I, BUF_I_N + wr_I_N);
                                                rd_H_I += 1;
                                                wr_I_N += 10;
                                            }
                                            {
                                                wr_M_N = 0;
                                                rd_M_N = 0;
                                                {
                                                    fire_M(BUF_L_M + rd_L_M, BUF_M_N + wr_M_N);
                                                    rd_L_M += 1;
                                                    wr_M_N += 10;
                                                }
                                                for (int i12 = 0; i12 < 10; ++i12) {
                                                    wr_N_S = 0;
                                                    rd_N_S = 0;
                                                    {
                                                        fire_N(BUF_I_N + rd_I_N, BUF_M_N + rd_M_N, BUF_N_S + wr_N_S);
                                                        rd_I_N += 1;
                                                        rd_M_N += 1;
                                                        wr_N_S += 1;
                                                    }
                                                    {
                                                        wr_S_J = 0;
                                                        rd_S_J = 0;
                                                        {
                                                            fire_S(BUF_N_S + rd_N_S, BUF_S_J + wr_S_J);
                                                            rd_N_S += 1;
                                                            wr_S_J += 1;
                                                        }
                                                        {
                                                            wr_J_T = 0;
                                                            rd_J_T = 0;
                                                            {
                                                                fire_J(BUF_S_J + rd_S_J, BUF_J_T + wr_J_T);
                                                                rd_S_J += 1;
                                                                wr_J_T += 1;
                                                            }
                                                            {
                                                                wr_T_U = 0;
                                                                rd_T_U = 0;
                                                                {
                                                                    fire_T(BUF_J_T + rd_J_T, BUF_T_U + wr_T_U);
                                                                    rd_J_T += 1;
                                                                    wr_T_U += 1;
                                                                }
                                                                {
                                                                    wr_U_P = 0;
                                                                    rd_U_P = 0;
                                                                    {
                                                                        fire_U(BUF_T_U + rd_T_U, BUF_U_P + wr_U_P);
                                                                        rd_T_U += 1;
                                                                        wr_U_P += 1;
                                                                    }
                                                                    {
                                                                        fire_P(BUF_U_P + rd_U_P, BUF_P_Q + wr_P_Q);
                                                                        rd_U_P += 1;
                                                                        wr_P_Q += 1;
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
                fire_Q(BUF_P_Q + rd_P_Q, BUF_Q_R + wr_Q_R);
                rd_P_Q += 240;
                wr_Q_R += 1;
            }
            {
                wr_R_V = 0;
                rd_R_V = 0;
                {
                    fire_R(BUF_Q_R + rd_Q_R, BUF_R_V + wr_R_V);
                    rd_Q_R += 1;
                    wr_R_V += 1;
                }
                {
                    wr_V_W = 0;
                    rd_V_W = 0;
                    {
                        fire_V(BUF_R_V + rd_R_V, BUF_V_W + wr_V_W);
                        rd_R_V += 1;
                        wr_V_W += 240;
                    }
                    for (int r = 0; r < 240; ++r) {
                        fire_W(BUF_V_W + rd_V_W);
                        rd_V_W += 1;
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
    for (;;) {
        run_one_period();
    }
    return 0;
}
